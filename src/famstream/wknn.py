"""Distance-weighted k-nearest-neighbor classification (Dudani weighting).

The reference set carries the clustered corpus: a `points.PointBuffer` whose
labels are the points' cluster ids. Neighbor search screens every reference
point once per query with one float32 matrix-vector product over the
store's float32 mirror (`points.sq_dists`), then computes exact float64
distances only for the rows that can still be among the k nearest. The
neighbors, their order and the vote are those of an exact full sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_dim
from .points import PointBuffer, exact_dists, sq_dists

WEIGHTINGS = ("uniform", "distance")


@dataclass(frozen=True)
class WKNNParams:
    """Neighbor count and weighting scheme.

    "distance" gives neighbor i weight (d_k - d_i) / (d_k - d_1), so the
    nearest neighbor weighs 1 and the k-th weighs 0; when all k distances
    coincide every weight is 1. "uniform" always weighs 1.
    """

    k: int = 3
    weighting: str = "distance"

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")


class ReferenceSet(PointBuffer):
    """The classifier's labeled points, labels being cluster ids; grows as
    the stream is accepted.

    Append-only. Many readers may classify concurrently; additions must be
    exclusive.
    """

    def __init__(self, points=None, labels=None, dim: int | None = None):
        if points is None:
            if dim is None:
                raise ValueError("an empty ReferenceSet needs an explicit dim")
            points = np.empty((0, int(dim)))
        super().__init__(points, [int(l) for l in (labels or [])], dim)

    def add(self, x, label: int) -> None:
        """Append one labeled point; later queries may select it."""
        super().add(x, int(label))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "points": self.points.tolist(), "labels": self.labels}

    @classmethod
    def from_dict(cls, d: dict) -> "ReferenceSet":
        if not d["points"]:
            return cls(dim=int(d["dim"]))
        return cls(points=d["points"], labels=d["labels"], dim=int(d["dim"]))


def classify(
    ref: ReferenceSet, params: WKNNParams, x
) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
    """Classify x by the majority weighted vote of its k nearest neighbors.

    Distance ties keep insertion order. A weighted-vote tie goes to the
    label of the nearest neighbor carrying one of the tied labels. Returns
    the winning cluster id and the k neighbors as (rows of ref.points,
    distances), both in ascending distance order.
    """
    if len(ref) < params.k:
        raise ValueError(f"k={params.k} exceeds reference set size {len(ref)}")
    x = np.asarray(x, dtype=np.float64)
    check_dim(ref.dim, x.shape[-1], "classify")
    k = params.k
    sq, err = sq_dists(ref.points32, ref.sq_norms, ref.max_sq_norm, x)
    if sq is None:  # outside the bound's range: every row is a candidate
        candidates = np.arange(len(ref))
    else:
        # Rows beyond kth + 2 err are strictly farther, after rounding, than
        # each of the k rows at or below kth, so they cannot be among the k
        # nearest. Kept in index order, the rest sort stably into the full
        # scan's order.
        kth = np.partition(sq, k - 1)[k - 1]
        candidates = np.flatnonzero(sq <= kth + 2.0 * err)
    cand_dists = exact_dists(ref.points[candidates], x)
    pick = np.argsort(cand_dists, kind="stable")[:k]
    order = candidates[pick]
    d = cand_dists[pick]
    d1, dk = float(d[0]), float(d[-1])
    if params.weighting == "uniform" or dk == d1:
        weights = np.ones(k)
    else:
        weights = (dk - d) / (dk - d1)

    labels = ref.labels
    scores: dict[int, float] = {}
    for idx, w in zip(order, weights):
        lab = labels[int(idx)]
        scores[lab] = scores.get(lab, 0.0) + float(w)
    top = max(scores.values())
    tied = {lab for lab, s in scores.items() if s == top}
    if len(tied) == 1:
        winner = tied.pop()
    else:
        winner = next(labels[int(idx)] for idx in order if labels[int(idx)] in tied)
    return winner, (order, d)
