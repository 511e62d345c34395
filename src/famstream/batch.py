"""Batch clustering of the initial corpus: k-means, DBSCAN, and batch SOM.

All three return KnownClusters, the structure the streaming stage routes
against: Clusters, each a `points.PointBuffer` of member points labeled by
sample id, with an integer cluster id and a centroid kept equal to the member
mean. Sample ids default to stringified point indices when none are given.
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
    members' squared norms and the largest of them feed the witness test's
    distance rows to x and to the centroid.
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

    def cluster_by_id(self, cluster_id: int) -> Cluster:
        for c in self.clusters:
            if c.id == cluster_id:
                return c
        raise KeyError(f"no cluster with id {cluster_id}")

    def assignments(self) -> dict[str, int]:
        """sample id -> cluster id over all members."""
        out: dict[str, int] = {}
        for c in self.clusters:
            for sid in c.labels:
                out[sid] = c.id
        return out

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


def _default_ids(n: int, ids) -> list[str]:
    if ids is None:
        return [str(i) for i in range(n)]
    ids = [str(i) for i in ids]
    if len(ids) != n:
        raise ValueError(f"{n} points but {len(ids)} ids")
    return ids


def _clusters_from_labels(X, labels, ids) -> KnownClusters:
    known = KnownClusters()
    next_id = 0
    for lab in sorted(set(int(l) for l in labels)):
        idx = [i for i, l in enumerate(labels) if int(l) == lab]
        known.clusters.append(Cluster(next_id, X[idx], [ids[i] for i in idx]))
        next_id += 1
    return known


def kmeans_batch(
    points, k: int, seed: int = 0, max_iters: int = 100, ids=None
) -> KnownClusters:
    """Lloyd k-means from k distinct seeded initial centroids.

    Iterates assignment/update until the assignment reaches a fixpoint or
    max_iters passes. An emptied cluster is reseeded to the point farthest
    from its former centroid. Nearest-centroid ties go to the lowest cluster
    id. Raises ValueError when k exceeds the number of distinct points.
    """
    from scipy.spatial.distance import cdist  # as in metrics._cluster_sums

    X = _as_points(points)
    ids = _default_ids(X.shape[0], ids)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
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
    return _clusters_from_labels(X, labels, ids)


def dbscan(
    points, eps: float, min_samples: int, ids=None
) -> tuple[KnownClusters, list[str]]:
    """Density-based clustering; returns (clusters, noise ids).

    A point is core when its eps-neighborhood (itself included) holds at
    least min_samples points. Clusters are the density-reachability closure
    of core points, grown in scan order, so border points join the first
    core cluster that reaches them. Deterministic for a fixed input order.
    """
    from scipy.spatial.distance import cdist  # as in metrics._cluster_sums

    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    X = _as_points(points)
    ids = _default_ids(X.shape[0], ids)
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

    noise_ids = [ids[i] for i in range(n) if labels[i] == NOISE]
    kept = [i for i in range(n) if labels[i] >= 0]
    if not kept:
        return KnownClusters(), noise_ids
    known = _clusters_from_labels(
        X[kept], [labels[i] for i in kept], [ids[i] for i in kept]
    )
    return known, noise_ids


def som_batch(
    points, k_units: int, epochs: int = 5, seed: int = 0, ids=None
) -> KnownClusters:
    """Cluster by training the online SOM over shuffled epochs.

    Runs `epochs` seeded-shuffle passes of the stream update over the
    points, then assigns each point to its best-matching unit. Units that
    win nothing are dropped and surviving cluster ids are renumbered
    densely; centroids are recomputed as member means. The learning rate and
    radius start at `som_init`'s defaults and decay over all epochs' steps.
    epochs=0 assigns by the initial random weights, still a valid partition.
    """
    X = _as_points(points)
    ids = _default_ids(X.shape[0], ids)
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
    labels = final_assign(state, X)
    return _clusters_from_labels(X, labels, ids)


@dataclass(frozen=True)
class ClustererSpec:
    """A named batch-clusterer configuration for selection grids."""

    name: str
    algorithm: str  # kmeans | som | dbscan
    params: dict = field(default_factory=dict)


def run_batch_clusterer(spec: ClustererSpec, points, seed: int = 0, ids=None) -> KnownClusters:
    """Dispatch one ClustererSpec; DBSCAN noise stays unassigned."""
    if spec.algorithm == "kmeans":
        return kmeans_batch(points, seed=seed, ids=ids, **spec.params)
    if spec.algorithm == "som":
        return som_batch(points, seed=seed, ids=ids, **spec.params)
    if spec.algorithm == "dbscan":
        known, _ = dbscan(points, ids=ids, **spec.params)
        if not known.clusters:
            raise ValueError("dbscan produced no clusters")
        return known
    raise ValueError(f"unknown batch clusterer {spec.algorithm!r}")
