"""Cluster-quality metrics: weighted purity and mean silhouette coefficient.

Purity consumes ground-truth family labels and is used for evaluation only;
it is never read by model selection. The silhouette coefficient (Rousseeuw,
1987) is label-free and safe to use while tuning. mean_silhouette scores
many labelings of one point set from each pass over the pairwise
distances, which dominates its cost.

The pass is symmetric: it splits the points into blocks and computes the
distances of each unordered pair of blocks once, so it evaluates each
distance once, not twice. Each labeling sums those distances per cluster
with plain numpy reductions in a fixed order, not with a matrix product,
because a BLAS product's bits change with its thread count: the scores are
the same bits at any thread count, and whichever other labelings share the
pass. Labelings share a pass in groups whose clusters total at most _GROUP,
which bounds the memory of their per-cluster sums.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

_BLOCK = 256
_GROUP = 512   # a group's sums take at most _GROUP x n doubles: 29 MB at n = 7000


@dataclass(frozen=True)
class ClusterPurity:
    cluster_id: int
    size: int
    purity: float
    dominant_family: str


@dataclass
class MetricsReport:
    """Purity of a clustering, overall and per cluster."""

    purity: float
    per_cluster: list[ClusterPurity] = field(default_factory=list)


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

    Labelings share a pass over the pairwise distances in groups whose
    clusters total at most _GROUP (a labeling with more clusters is a group
    of its own), and a labeling scores the same bits whichever others come
    with it: see _cluster_sums.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        X = np.atleast_2d(X)
    encoded = [_encode_labels(labels, X.shape[0]) for labels in labelings]
    scores: list[float] = []
    group: list[tuple[np.ndarray, np.ndarray]] = []
    for lab, sizes in encoded:
        if group and sum(len(s) for _, s in group) + len(sizes) > _GROUP:
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
    sums = _cluster_sums(X, [lab for lab, _ in group])
    return [float(_row_scores(S.T, lab, sizes).mean()) for S, (lab, sizes) in zip(sums, group)]


def _cluster_sums(X: np.ndarray, labs: list[np.ndarray]) -> list[np.ndarray]:
    """Per labeling, the (k, n) sums of each point's distances to each cluster.

    The points are split, in input order, into blocks of _BLOCK rows, and
    each unordered pair of blocks (I, J), I <= J, takes one D = cdist(X_I,
    X_J): its rows give block J's sums over I's points, its columns block
    I's sums over J's points. scipy's euclidean kernel is symmetric bit for
    bit ((a-b)^2 == (b-a)^2), so D.T holds cdist(X_J, X_I). Within a block
    the points are ordered by a stable sort on their cluster, and each run
    of one cluster is reduced with .sum(axis=0), whose order of additions
    numpy fixes from the shape alone; each block's partial sums are added
    in block order. The sums thus depend only on the points, the labeling
    and _BLOCK, not on the BLAS thread count (which a matrix product's bits
    do) nor on the other labelings.
    """
    # scipy's kernel is several times faster than points.pair_dists on a pass
    # this large; importing it here keeps scipy off the routing path
    from scipy.spatial.distance import cdist

    n = X.shape[0]
    starts = range(0, n, _BLOCK)
    runs = [[_runs(lab[i:i + _BLOCK]) for i in starts] for lab in labs]
    sums = [np.zeros((lab.max() + 1, n), dtype=np.float64) for lab in labs]
    for bi, i in enumerate(starts):
        for bj, j in enumerate(starts[bi:], bi):
            dist = cdist(X[i:i + _BLOCK], X[j:j + _BLOCK])
            # rows of a contiguous copy gather faster than rows of dist.T: worth
            # the copy once more than one labeling reads them
            dist_t = np.ascontiguousarray(dist.T) if len(labs) > 1 else dist.T
            for S, blocks in zip(sums, runs):
                _add_runs(S[:, j:j + _BLOCK], dist, blocks[bi])
                if bj != bi:
                    _add_runs(S[:, i:i + _BLOCK], dist_t, blocks[bj])
    return sums


def _runs(lab: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """A stable order of one block's points by cluster, and each run of one
    cluster in it as (cluster, start, stop)."""
    order = np.argsort(lab, kind="stable")
    clusters, heads = np.unique(lab[order], return_index=True)
    stops = [*heads[1:].tolist(), len(lab)]
    return order, list(zip(clusters.tolist(), heads.tolist(), stops))


def _add_runs(out: np.ndarray, dist: np.ndarray, block: tuple) -> None:
    """Add to out[c] the sum of the rows of dist whose point is in cluster c."""
    order, runs = block
    rows = dist[order]
    for c, a, b in runs:
        out[c] += rows[a:b].sum(axis=0)


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
