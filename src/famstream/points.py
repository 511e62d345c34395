"""The labeled point store and the distance kernel routing runs on.

PointBuffer keeps float64 points, one label per point, their squared norms
and the largest of those, plus `points32`, the same rows rounded to float32.
It is the WKNN reference set (labels are cluster ids) and each known
cluster's member list (labels are sample ids).

`sq_dists` gives the squared distances from one query to every stored point
as one float32 matrix-vector product over `points32`,
s = |p|^2 - 2 p.x + |x|^2 with the float64 norms, together with a bound on
how far each entry may sit from the squared distance that `exact_dists`
computes the direct way from the float64 rows. Callers decide on s wherever
the bound cannot flip the decision and recompute exactly, with
`exact_dists`, only the rows where it can. That keeps every decision
identical to scanning with `exact_dists` alone, while the screening scan
reads half the bytes: at 40 dimensions a 7,000-row set is 1.1 MB in float32
and 2.2 MB in float64.

`pair_dists` and `condensed_dists` are the all-pairs Euclidean distances of
final assignment and the BSAS warm-up. Their contract is bit parity with
scipy's euclidean `cdist` and `pdist`: the squares (a_k - b_k)^2 are added
left to right over the dimensions, the order scipy's kernel uses, so the
routing path needs numpy alone and still returns scipy's bits.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .data import check_dim

EPS = float(np.finfo(np.float64).eps)
EPS32 = float(np.finfo(np.float32).eps)
# R = max|p| + |x| range in which `sq_dists`' float32 bound holds
R_RANGE = (2.0**-60, 2.0**60)


def as_float32(a) -> np.ndarray:
    """a rounded to float32, as `PointBuffer.points32` holds its rows. Entries
    beyond float32's range become inf without a warning; `sq_dists` reads no
    row that holds one, as its norm is beyond R_RANGE."""
    with np.errstate(over="ignore"):
        return np.asarray(a, dtype=np.float32)


class PointBuffer:
    """Append-only labeled points: (n, dim) float64 rows, their float32
    mirror `points32`, which `sq_dists` screens, `labels` with one entry per
    row, the rows' squared norms and the largest squared norm, which
    `sq_dists` bounds its error with.

    Built from a copy of the given rows. `labels` is the live list in
    insertion order; callers must not mutate it. Storage grows by capacity
    doubling, so `add` is amortised O(dim). A deep copy copies every array and
    list the store or a subclass holds, so copies grow independently.
    """

    def __init__(self, points, labels, dim: int | None = None):
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        name = type(self).__name__
        if pts.ndim != 2:
            raise ValueError(f"{name} needs an (n, dim) point array, got shape {pts.shape}")
        labels = list(labels)
        if len(labels) != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {len(labels)} labels")
        if dim is not None:
            check_dim(int(dim), pts.shape[1], name)
        self._points = pts
        self._points32 = as_float32(pts)
        self._sq_norms = np.einsum("ij,ij->i", pts, pts)
        self._n = pts.shape[0]
        self._max_sq_norm = float(self._sq_norms.max()) if self._n else 0.0
        self.labels = labels

    def __len__(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        return self._points[: self._n]

    @property
    def points32(self) -> np.ndarray:
        """`points` rounded to float32, bit for bit `as_float32(points)`."""
        return self._points32[: self._n]

    @property
    def sq_norms(self) -> np.ndarray:
        return self._sq_norms[: self._n]

    @property
    def max_sq_norm(self) -> float:
        """The largest squared norm, `sq_norms.max()`; 0.0 while empty."""
        return self._max_sq_norm

    def add(self, x, label) -> None:
        """Append one labeled point."""
        x = np.asarray(x, dtype=np.float64)
        check_dim(self.dim, x.shape[-1], f"{type(self).__name__}.add")
        if self._n == self._points.shape[0]:
            capacity = max(8, 2 * self._n)
            grown = []
            for old in (self._points, self._points32, self._sq_norms):
                new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
                new[: self._n] = old[: self._n]
                grown.append(new)
            self._points, self._points32, self._sq_norms = grown
        row = self._points[self._n]
        row[:] = x
        self._points32[self._n] = as_float32(row)
        sq_norm = float(row @ row)
        self._sq_norms[self._n] = sq_norm
        self._max_sq_norm = max(self._max_sq_norm, sq_norm)
        self._n += 1
        self.labels.append(label)

    def __deepcopy__(self, memo):
        # labels are ints or strings, so a shallow list copy is a deep one
        clone = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, (np.ndarray, list)):
                setattr(clone, name, value.copy())
        return clone


def exact_dists(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distance from x to each row of points, computed directly.

    Each row's result depends only on that row and x, not on which other rows
    are passed along, so recomputing a subset reproduces the full scan's bits.
    """
    diff = points - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def sq_dists(
    points32: np.ndarray, sq_norms: np.ndarray, max_sq_norm: float, x: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """Approximate squared distances from x to each row, and their error bound.

    points32 are the rows rounded to float32, sq_norms the float64 rows'
    squared norms and max_sq_norm their maximum, as a PointBuffer keeps them,
    so no call reads the float64 rows. Returns (s, err): each s_i lies within
    err of the sum of squares whose square root `exact_dists` returns for the
    float64 row i. s = |p|^2 + p32 . fl32(-2 x) + |x|^2, the dot product in
    float32: it converts exactly when it is added to the float64 norms, so s
    is float64.

    The bound, with u = EPS / 2, v = EPS32 / 2, n the dot length and
    R = max|p| + |x|: a floating-point dot product or sum of squares of
    length n is within gamma_n = n u / (1 - n u) of exact (n v / (1 - n v) in
    float32), relative to the sum of its terms' magnitudes, in any summation
    order and with or without FMA.
    - Cross term: rounding p and -2x to float32 moves each product by at most
      2v + v^2 of its magnitude, and the float32 dot adds its gamma_n. The
      products' magnitudes add up to at most 2|p||x| <= R^2 / 2, so the term
      is within (n + 2) v R^2 / 2 = (n + 2) EPS32 R^2 / 4 of -2 p.x.
    - Float64 terms: |p|^2, |x|^2 and the cross term have magnitudes at most
      R^2 together; the norms' sums and the two additions forming s add
      (n + 2) u R^2. So s is within (n + 2) (u + EPS32 / 4) R^2 of the exact
      |p - x|^2.
    - The direct form sum((p - x)^2) rounds each difference (2u after
      squaring) and then the sum (gamma_n), and |p - x| <= R, so it is within
      (n + 2) u R^2 of the exact |p - x|^2.
    Together: (n + 2) (EPS + EPS32 / 4) R^2 to first order.
    err = (n + 10) EPS32 R^2 + (n + 6) EPS R^2 exceeds that by more than
    (3/4) (n + 10) EPS32 R^2. The excess absorbs the higher-order terms, and
    when two entries of s differ by more than 2 err, their exact counterparts
    then differ by far more than 4 EPS times the smaller one, enough for their
    rounded square roots to differ as well.

    The relative bounds assume no float32 overflow or underflow. Within
    R_RANGE, 2^-60 <= R <= 2^60, nothing overflows: every float32 term is at
    most R^2 / 2 <= 2^119. An entry, product or sum below the normal range,
    in float32 or float64, moves by at most 2^-150 absolute. Fewer than 4n
    such moves, each scaled by at most 2R, stay far below the excess, which
    is at least n 2^-144 there. Outside R_RANGE, or when R is not finite, no
    product is formed and the result is (None, inf): the caller must decide
    every row exactly.
    """
    xx = float(x @ x)
    r = math.sqrt(max_sq_norm) + math.sqrt(xx)
    if not R_RANGE[0] <= r <= R_RANGE[1]:
        return None, math.inf
    s = (points32 @ (-2.0 * x).astype(np.float32)).astype(np.float64)
    s += sq_norms
    s += xx
    n = points32.shape[1]
    return s, ((n + 10) * EPS32 + (n + 6) * EPS) * r * r


def pair_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances between the rows of A and of B, bit for bit
    what scipy's `cdist(A, B)` returns."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    out = np.zeros((A.shape[0], B.shape[0]))
    for k in range(A.shape[1]):
        diff = A[:, k, None] - B[:, k]
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def condensed_dists(A: np.ndarray) -> np.ndarray:
    """Distances between all pairs of rows i < j of A in row-major order, bit
    for bit what scipy's `pdist(A)` returns."""
    return pair_dists(A, A)[np.triu_indices(len(A), 1)]
