"""Append-only point storage and the distance kernel routing runs on.

PointBuffer keeps float64 points with their squared norms and the largest of
those. It backs both the WKNN reference set and each known cluster's member
list.

`sq_dists` gives the squared distances from one query to every stored point
as one matrix-vector product, s = |p|^2 - 2 p.x + |x|^2, together with a bound
on how far each entry may sit from the squared distance that `exact_dists`
computes the direct way. Callers decide on s wherever the bound cannot flip
the decision and recompute exactly, with `exact_dists`, only the rows where it
can. That keeps every decision identical to scanning with `exact_dists` alone.

`pair_dists` and `condensed_dists` are the all-pairs Euclidean distances of
final assignment and the BSAS warm-up. Their contract is bit parity with
scipy's euclidean `cdist` and `pdist`: the squares (a_k - b_k)^2 are added
left to right over the dimensions, the order scipy's kernel uses, so the
routing path needs numpy alone and still returns scipy's bits.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)


class PointBuffer:
    """Append-only (n, dim) float64 points, their squared norms and the largest
    squared norm, which `sq_dists` bounds its error with.

    Storage grows by capacity doubling, so appending one point is amortised
    O(dim). The buffer adopts the array it is built from; callers pass one
    they no longer modify.
    """

    def __init__(self, points: np.ndarray):
        self._points = np.asarray(points, dtype=np.float64)
        self._sq_norms = np.einsum("ij,ij->i", self._points, self._points)
        self._n = self._points.shape[0]
        self._max_sq_norm = float(self._sq_norms.max()) if self._n else 0.0

    def __len__(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        return self._points[: self._n]

    @property
    def sq_norms(self) -> np.ndarray:
        return self._sq_norms[: self._n]

    @property
    def max_sq_norm(self) -> float:
        """The largest squared norm, `sq_norms.max()`; 0.0 while empty."""
        return self._max_sq_norm

    def append(self, x: np.ndarray) -> None:
        if self._n == self._points.shape[0]:
            capacity = max(8, 2 * self._n)
            points = np.empty((capacity, self.dim))
            points[: self._n] = self.points
            sq_norms = np.empty(capacity)
            sq_norms[: self._n] = self.sq_norms
            self._points, self._sq_norms = points, sq_norms
        row = self._points[self._n]
        row[:] = x
        sq_norm = float(row @ row)
        self._sq_norms[self._n] = sq_norm
        self._max_sq_norm = max(self._max_sq_norm, sq_norm)
        self._n += 1

    def __deepcopy__(self, memo):
        clone = PointBuffer.__new__(PointBuffer)
        clone._points = self._points.copy()
        clone._sq_norms = self._sq_norms.copy()
        clone._n = self._n
        clone._max_sq_norm = self._max_sq_norm
        return clone


def exact_dists(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distance from x to each row of points, computed directly.

    Each row's result depends only on that row and x, not on which other rows
    are passed along, so recomputing a subset reproduces the full scan's bits.
    """
    diff = points - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def sq_dists(
    points: np.ndarray, sq_norms: np.ndarray, max_sq_norm: float, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Approximate squared distances from x to each row, and their error bound.

    sq_norms are the rows' squared norms and max_sq_norm their maximum, as a
    PointBuffer keeps them, so no call scans the rows for it. Returns
    (s, err): each s_i lies within err of the sum of squares whose square
    root `exact_dists` returns for row i. The -2 of the cross term is folded
    into the query, points @ (-2 x): scaling by a power of two is exact, so s
    has the bits of -2 (points @ x) + |p|^2 + |x|^2 without a pass over s.

    The bound, with u = EPS / 2, n the dot length and R = max|p| + |x|: a
    floating-point dot product or sum of squares of length n is within
    gamma_n = n u / (1 - n u) of exact, relative to the sum of its terms'
    magnitudes, in any summation order and with or without FMA. Here |p|^2,
    2 p.x and |x|^2 together have magnitudes at most R^2, and the two
    additions forming s add u R^2 each, so s is within (n + 2) u R^2 of the
    exact |p - x|^2. The direct form sum((p - x)^2) rounds each difference
    (2u after squaring) and then the sum (gamma_n), and |p - x| <= R, so it
    too is within (n + 2) u R^2. Together: (n + 2) EPS R^2 to first order.
    err = (n + 6) EPS R^2 adds 4 EPS R^2 to that. It absorbs the higher-order
    terms, and when two entries of s differ by more than 2 err, their exact
    counterparts then differ by more than 4 EPS times the smaller one, enough
    for their rounded square roots to differ as well.

    The bound assumes no square underflows (entries far below 1e-150). An
    overflowing bound is inf or nan; callers then treat every row as
    undecided, which falls back to the exact scan.
    """
    xx = float(x @ x)
    s = points @ (-2.0 * x)
    s += sq_norms
    s += xx
    r = math.sqrt(max_sq_norm) + math.sqrt(xx)
    return s, (points.shape[1] + 6) * EPS * r * r


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
