"""Distance-weighted k-nearest-neighbor classification (Dudani weighting).

The reference set carries the clustered corpus: each point is labeled with
its cluster id. Neighbor search is an exact linear scan; at desk scale the
voting formula is the contract, not the lookup speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_dim

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
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")


class ReferenceSet:
    """Labeled points backing the classifier; grows as the stream is accepted.

    Append-only with capacity doubling. Many readers may classify
    concurrently; additions must be exclusive.
    """

    def __init__(self, points=None, labels=None, dim: int | None = None):
        if points is None:
            if dim is None:
                raise ValueError("an empty ReferenceSet needs an explicit dim")
            self.dim = int(dim)
            self._buf = np.empty((0, self.dim), dtype=np.float64)
            self._n = 0
            self._labels: list[int] = []
            return
        pts = np.array(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        labels = [int(l) for l in (labels or [])]
        if len(labels) != pts.shape[0]:
            raise ValueError(f"{pts.shape[0]} points but {len(labels)} labels")
        self.dim = pts.shape[1] if dim is None else int(dim)
        check_dim(self.dim, pts.shape[1], "ReferenceSet")
        self._buf = pts
        self._n = pts.shape[0]
        self._labels = labels

    def __len__(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._buf[: self._n]

    @property
    def labels(self) -> list[int]:
        return self._labels[: self._n]

    def add(self, x, label: int) -> "ReferenceSet":
        """Append one labeled point; later queries may select it."""
        x = np.asarray(x, dtype=np.float64)
        check_dim(self.dim, x.shape[-1], "ReferenceSet.add")
        if self._n == self._buf.shape[0]:
            grown = np.empty((max(8, 2 * self._buf.shape[0]), self.dim))
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n] = x
        self._labels.append(int(label))
        self._n += 1
        return self

    def __deepcopy__(self, memo):
        clone = ReferenceSet.__new__(ReferenceSet)
        clone.dim = self.dim
        clone._buf = self._buf.copy()
        clone._n = self._n
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
) -> tuple[int, list[tuple[np.ndarray, float]]]:
    """Classify x by the majority weighted vote of its k nearest neighbors.

    Distance ties keep insertion order. A weighted-vote tie goes to the
    label of the nearest neighbor carrying one of the tied labels. Returns
    the winning cluster id and the k neighbors as (point, distance) pairs
    in ascending distance order.
    """
    if len(ref) < params.k:
        raise ValueError(f"k={params.k} exceeds reference set size {len(ref)}")
    x = np.asarray(x, dtype=np.float64)
    check_dim(ref.dim, x.shape[-1], "classify")
    P = ref.points
    diff = P - x
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.argsort(dists, kind="stable")[: params.k]
    d = dists[order]
    d1, dk = float(d[0]), float(d[-1])
    if params.weighting == "uniform" or dk == d1:
        weights = np.ones(params.k)
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
    neighbors = [(P[int(idx)].copy(), float(dists[int(idx)])) for idx in order]
    return winner, neighbors
