"""Distance-weighted k-nearest-neighbor classification (Dudani weighting).

The reference set carries the clustered corpus: each point is labeled with
its cluster id. Neighbor search scans every reference point once per query
with one matrix-vector product (`points.sq_dists`), then computes exact
distances only for the rows that can still be among the k nearest. The
neighbors, their order and the vote are those of an exact full sort.
"""

from __future__ import annotations

import copy
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


class ReferenceSet:
    """Labeled points backing the classifier; grows as the stream is accepted.

    Append-only. Many readers may classify concurrently; additions must be
    exclusive.
    """

    def __init__(self, points=None, labels=None, dim: int | None = None):
        if points is None:
            if dim is None:
                raise ValueError("an empty ReferenceSet needs an explicit dim")
            self._store = PointBuffer(np.empty((0, int(dim))))
            self._labels: list[int] = []
            return
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        labels = [int(l) for l in (labels or [])]
        if len(labels) != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {len(labels)} labels")
        if dim is not None:
            check_dim(int(dim), pts.shape[1], "ReferenceSet")
        self._store = PointBuffer(pts)
        self._labels = labels

    def __len__(self) -> int:
        return len(self._store)

    @property
    def dim(self) -> int:
        return self._store.dim

    @property
    def points(self) -> np.ndarray:
        return self._store.points

    @property
    def sq_norms(self) -> np.ndarray:
        return self._store.sq_norms

    @property
    def max_sq_norm(self) -> float:
        return self._store.max_sq_norm

    @property
    def labels(self) -> list[int]:
        """The live label list, in insertion order; callers must not mutate it."""
        return self._labels

    def add(self, x, label: int) -> "ReferenceSet":
        """Append one labeled point; later queries may select it."""
        x = np.asarray(x, dtype=np.float64)
        check_dim(self.dim, x.shape[-1], "ReferenceSet.add")
        self._store.append(x)
        self._labels.append(int(label))
        return self

    def __deepcopy__(self, memo):
        clone = ReferenceSet.__new__(ReferenceSet)
        clone._store = copy.deepcopy(self._store, memo)
        clone._labels = list(self._labels)
        return clone

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
    sq, err = sq_dists(ref.points, ref.sq_norms, ref.max_sq_norm, x)
    kth = np.partition(sq, k - 1)[k - 1]
    # Rows beyond kth + 2 err are strictly farther, after rounding, than each
    # of the k rows at or below kth, so they cannot be among the k nearest.
    # Kept in index order, the rest sort stably into the full scan's order.
    # `~(sq > limit)` keeps every row when the bound overflowed to inf or nan.
    candidates = np.flatnonzero(~(sq > kth + 2.0 * err))
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
