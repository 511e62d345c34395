"""Batch clustering of the initial corpus: k-means, DBSCAN, and batch SOM.

All three return one integer cluster label per input row: dense ids
0..C-1, and -1 for DBSCAN noise. `KnownClusters.from_labels` turns a dense
labeling into the structure the streaming stage routes against: Clusters,
each a `points.PointBuffer` of member points labeled by sample id, with an
integer cluster id and a centroid kept equal to the member mean.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .online import final_assign, som_init, som_update
from .points import PointBuffer


class Cluster(PointBuffer):
    """One known cluster: an id, a running-mean centroid, and its member
    points labeled by sample id.

    The streaming stage appends accepted samples with `add_member`; the
    members' float32 mirror, their squared norms and the largest of them
    feed the witness test's distance rows to x and to the centroid.
    """

    def __init__(self, cluster_id: int, points, member_ids):
        super().__init__(points, [str(m) for m in member_ids])
        if len(self) == 0:
            raise ValueError("a cluster must have at least one member")
        self.id = int(cluster_id)
        self._centroid = self.points.mean(axis=0)

    @property
    def centroid(self) -> np.ndarray:
        """Running mean of the members; only add_member moves it."""
        return self._centroid

    def add_member(self, x, member_id: str, update_centroid: bool = True) -> None:
        """Append one member; optionally advance the running-mean centroid."""
        x = np.asarray(x, dtype=np.float64)
        self.add(x, str(member_id))
        if update_centroid:
            self._centroid = self._centroid + (x - self._centroid) / len(self)


@dataclass
class KnownClusters:
    """The clustered corpus the stream is routed against."""

    clusters: list[Cluster] = field(default_factory=list)

    @classmethod
    def from_labels(cls, points, labels, ids) -> "KnownClusters":
        """One Cluster per label 0..max(labels), with id = label = its index in
        `clusters`, which routing looks clusters up by: its members are the rows
        with that label, in row order, labeled by the matching ids. Rows labeled
        -1 (DBSCAN noise) join no cluster; a missing label raises ValueError."""
        X = np.asarray(points, dtype=np.float64)
        labels = np.asarray(labels)
        ids = np.asarray(list(ids), dtype=object)
        return cls([Cluster(c, X[labels == c], ids[labels == c])
                    for c in range(int(labels.max()) + 1)])

    def to_dict(self) -> dict:
        return {
            "clusters": [
                {"id": c.id, "centroid": c.centroid.tolist(), "member_ids": list(c.labels)}
                for c in self.clusters
            ]
        }


def _as_points(points) -> np.ndarray:
    X = np.array(points, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, d) point array, got shape {X.shape}")
    return X


def kmeans_batch(points, k: int, seed: int = 0, max_iters: int = 100) -> np.ndarray:
    """Lloyd k-means from k distinct seeded initial centroids; returns each
    row's cluster label in 0..k-1.

    Iterates assignment/update until the assignment reaches a fixpoint or
    max_iters passes. An emptied cluster is reseeded to the point farthest
    from its former centroid. Nearest-centroid ties go to the lowest cluster
    id. Raises ValueError when k exceeds the number of distinct points or
    max_iters is below 1, so every label 0..k-1 holds at least one row.
    """
    from scipy.spatial.distance import cdist  # as in metrics._cluster_sums

    X = _as_points(points)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    distinct = np.unique(X, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the {distinct.shape[0]} distinct points")
    rng = np.random.default_rng(seed)
    centroids = distinct[rng.choice(distinct.shape[0], size=k, replace=False)].copy()

    labels = np.full(X.shape[0], -1, dtype=np.intp)
    for _ in range(max_iters):
        dist = cdist(X, centroids)
        new_labels = np.argmin(dist, axis=1)  # argmin takes the lowest id on ties
        taken: set[int] = set()
        for j in range(k):
            if np.any(new_labels == j):
                continue
            far = np.argsort(-cdist(X, centroids[j][None, :])[:, 0], kind="stable")
            pick = next(int(i) for i in far if int(i) not in taken)
            taken.add(pick)
            new_labels[pick] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = X[labels == j].mean(axis=0)
    return labels


def dbscan(points, eps: float, min_samples: int) -> np.ndarray:
    """Density-based clustering; returns each row's cluster label, -1 for noise.

    A point is core when its eps-neighborhood (itself included) holds at
    least min_samples points. Clusters are the density-reachability closure
    of core points, grown in scan order and numbered 0..C-1 in that order, so
    border points join the first core cluster that reaches them.
    Deterministic for a fixed input order.
    """
    from scipy.spatial.distance import cdist  # as in metrics._cluster_sums

    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    X = _as_points(points)
    n = X.shape[0]

    UNVISITED, NOISE = -2, -1
    labels = np.full(n, UNVISITED, dtype=np.intp)

    def region(i: int) -> np.ndarray:
        d = cdist(X[i][None, :], X)[0]
        return np.nonzero(d <= eps)[0]

    cid = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        neigh = region(i)
        if neigh.size < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cid
        # a label never returns to UNVISITED or NOISE, so a neighbour already
        # in a cluster (label >= 0) would only be skipped when popped
        queue = deque(neigh[labels[neigh] < 0].tolist())
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cid  # border point claimed by the first core reaching it
            if labels[j] != UNVISITED:
                continue
            labels[j] = cid
            jn = region(j)
            if jn.size >= min_samples:
                queue.extend(jn[labels[jn] < 0].tolist())
        cid += 1
    return labels


def som_batch(points, k_units: int, epochs: int = 5, seed: int = 0) -> np.ndarray:
    """Cluster by training the online SOM over shuffled epochs.

    Runs `epochs` seeded-shuffle passes of the stream update over the
    points, then labels each point with its best-matching unit. Units that
    win nothing are dropped and the surviving units renumbered densely, in
    unit order. The learning rate and radius start at `som_init`'s defaults
    and decay over all epochs' steps. epochs=0 assigns by the initial random
    weights, still a valid partition.
    """
    X = _as_points(points)
    if k_units < 1:
        raise ValueError(f"k_units must be >= 1, got {k_units}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    rng = np.random.default_rng(seed)
    horizon = float(max(1, epochs * X.shape[0]))
    state = som_init(k_units, X.shape[1], seed=rng, lambda_alpha=horizon, lambda_sigma=horizon)
    for _ in range(epochs):
        for x in X[rng.permutation(X.shape[0])]:
            som_update(state, x)
    return np.unique(final_assign(state, X), return_inverse=True)[1]


@dataclass(frozen=True)
class ClustererSpec:
    """A named batch-clusterer configuration for selection grids."""

    name: str
    algorithm: str  # kmeans | som | dbscan
    params: dict = field(default_factory=dict)


def run_batch_clusterer(spec: ClustererSpec, points, seed: int = 0) -> np.ndarray:
    """Dispatch one ClustererSpec; returns its labels, -1 for DBSCAN noise."""
    if spec.algorithm == "kmeans":
        return kmeans_batch(points, seed=seed, **spec.params)
    if spec.algorithm == "som":
        return som_batch(points, seed=seed, **spec.params)
    if spec.algorithm == "dbscan":
        return dbscan(points, **spec.params)
    raise ValueError(f"unknown batch clusterer {spec.algorithm!r}")
