"""Cluster-quality metrics: weighted purity and mean silhouette coefficient.

Purity consumes ground-truth family labels and is used for evaluation only;
it is never read by model selection. The silhouette coefficient (Rousseeuw,
1987) is label-free and safe to use while tuning. mean_silhouette scores
any number of labelings of one point set from a single chunked pass over
the pairwise distances, which dominates its cost.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

_CHUNK = 256


@dataclass(frozen=True)
class ClusterPurity:
    cluster_id: int
    size: int
    purity: float
    dominant_family: str


@dataclass
class MetricsReport:
    """Purity and silhouette results; either field may be absent."""

    purity: float | None = None
    mean_silhouette: float | None = None
    per_cluster: list[ClusterPurity] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "purity": self.purity,
            "mean_silhouette": self.mean_silhouette,
            "per_cluster": [
                {
                    "cluster_id": c.cluster_id,
                    "size": c.size,
                    "purity": c.purity,
                    "dominant_family": c.dominant_family,
                }
                for c in self.per_cluster
            ],
        }


def purity(assignments: Mapping[str, int], labels: Mapping[str, str]) -> MetricsReport:
    """Weighted purity of a clustering against ground-truth families.

    Each cluster scores the share of its dominant family; the overall value
    is the size-weighted average, equivalently the fraction of samples that
    belong to their cluster's dominant family. Dominance ties break to the
    lexicographically smallest family name.
    """
    if not assignments:
        raise ValueError("purity of an empty assignment is undefined")
    missing = sorted(sid for sid in assignments if sid not in labels)
    if missing:
        shown = missing[:10]
        suffix = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise ValueError(f"samples missing ground-truth labels: {shown}{suffix}")

    by_cluster: dict[int, Counter] = defaultdict(Counter)
    for sid, cid in assignments.items():
        by_cluster[int(cid)][labels[sid]] += 1

    n = len(assignments)
    per_cluster: list[ClusterPurity] = []
    dominant_total = 0
    for cid in sorted(by_cluster):
        counts = by_cluster[cid]
        top = max(counts.values())
        family = min(f for f, c in counts.items() if c == top)
        size = sum(counts.values())
        dominant_total += top
        per_cluster.append(ClusterPurity(cid, size, top / size, family))
    return MetricsReport(purity=dominant_total / n, per_cluster=per_cluster)


def mean_silhouette(points, labelings: Sequence[Sequence]) -> list[float]:
    """Mean silhouette coefficient of each labeling of one point set.

    For a point x in cluster C: a(x) is its mean distance to the other
    members of C (divisor |C| - 1), b(x) the smallest mean distance to any
    other cluster, and s(x) = (b - a) / max(a, b). Points in singleton
    clusters contribute s = 0, the original Rousseeuw convention. Every
    labeling needs at least two clusters; all are checked before any
    distance is computed.

    The labelings share one chunked distance pass: for each chunk of rows,
    each labeling takes its own `dist @ onehot`, the same product on the
    same operands as scoring it alone, so a labeling scores the same bits
    whichever others come with it. Labelings are scored in groups whose
    one-hot columns total at most _CHUNK (a labeling with more clusters is
    a group of its own), so the one-hot matrices of a group take no more
    memory than one distance chunk.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        X = np.atleast_2d(X)
    encoded = [_encode_labels(labels, X.shape[0]) for labels in labelings]
    scores: list[float] = []
    group: list[tuple[np.ndarray, np.ndarray]] = []
    for lab, sizes in encoded:
        if group and sum(len(s) for _, s in group) + len(sizes) > _CHUNK:
            scores.extend(_score_group(X, group))
            group = []
        group.append((lab, sizes))
    if group:
        scores.extend(_score_group(X, group))
    return scores


def _encode_labels(labels: Sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster index of each point (clusters in sorted label order) and the
    cluster sizes."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"{n} points but {len(labels)} labels")
    uniq, lab = np.unique(labels, return_inverse=True)
    if len(uniq) < 2:
        raise ValueError(f"silhouette needs at least 2 clusters, got {len(uniq)}")
    return lab, np.bincount(lab, minlength=len(uniq)).astype(np.float64)


def _score_group(X: np.ndarray, group: list[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    # scipy's kernel is several times faster than points.pair_dists on a pass
    # this large; importing it here keeps scipy off the routing path
    from scipy.spatial.distance import cdist

    n = X.shape[0]
    onehots = []
    for lab, sizes in group:
        onehot = np.zeros((n, len(sizes)), dtype=np.float64)
        onehot[np.arange(n), lab] = 1.0
        onehots.append(onehot)
    scores = [np.zeros(n, dtype=np.float64) for _ in group]
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        dist = cdist(X[start:stop], X)          # (m, n), self-distance is 0
        for (lab, sizes), onehot, out in zip(group, onehots, scores):
            cluster_sums = dist @ onehot        # (m, k) fixed-order reduction
            out[start:stop] = _row_scores(cluster_sums, lab[start:stop], sizes)
    return [float(s.mean()) for s in scores]


def _row_scores(cluster_sums: np.ndarray, own: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """s(x) of each row from its per-cluster distance sums."""
    rows = np.arange(len(own))
    with np.errstate(divide="ignore", invalid="ignore"):   # masked below
        a = cluster_sums[rows, own] / (sizes[own] - 1.0)
        means = cluster_sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        s = (b - a) / denom
    # singleton (a = 0/0) and a = b = 0 rows score 0
    return np.where((sizes[own] > 1) & (denom != 0.0), s, 0.0)
