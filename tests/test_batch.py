import copy
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from famstream.batch import Cluster, KnownClusters, dbscan, kmeans_batch, som_batch

from conftest import blobs


def validate_labels(labels, n: int, noise: bool = False):
    """Check what every batch labeling must satisfy: one np.intp label per
    row, cluster ids dense in 0..C-1, and -1 (DBSCAN noise) only if allowed."""
    assert labels.dtype == np.intp and labels.shape == (n,)
    assert labels.min() >= (-1 if noise else 0)
    assert set(labels[labels >= 0].tolist()) == set(range(int(labels.max()) + 1))


def known_of(pts, labels) -> KnownClusters:
    """The clusters of a labeling, the row indices as sample ids."""
    return KnownClusters.from_labels(pts, labels, range(len(pts)))


def partition(labels) -> set[frozenset[int]]:
    """The rows of each cluster, noise left out."""
    return {frozenset(np.flatnonzero(labels == c).tolist())
            for c in range(int(labels.max()) + 1)}


def wcss(pts, labels) -> float:
    return sum(float(((m - m.mean(axis=0)) ** 2).sum())
               for m in (pts[labels == c] for c in range(int(labels.max()) + 1)))


def test_kmeans_two_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    # seed 1 draws one initial centroid from each pair; Lloyd then converges
    # to the pair midpoints (an init inside one pair stays in that local
    # optimum, which is Lloyd behaving as specified)
    labels = kmeans_batch(pts, k=2, seed=1)
    validate_labels(labels, 4)
    got = sorted(tuple(c.centroid) for c in known_of(pts, labels).clusters)
    assert got == [(0.0, 0.5), (10.0, 0.5)]

    # exhaustive oracle: of all 2-partitions, the pair split minimizes WCSS
    best = None
    for mask in itertools.product([0, 1], repeat=4):
        if len(set(mask)) < 2:
            continue
        total = 0.0
        for side in (0, 1):
            members = pts[[i for i in range(4) if mask[i] == side]]
            total += float(((members - members.mean(axis=0)) ** 2).sum())
        if best is None or total < best[0]:
            best = (total, mask)
    assert abs(wcss(pts, labels) - best[0]) <= 1e-12


def test_kmeans_k1_global_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(25, 3))
    labels = kmeans_batch(pts, k=1, seed=4)
    np.testing.assert_array_equal(labels, np.zeros(25, dtype=np.intp))
    (cluster,) = known_of(pts, labels).clusters
    np.testing.assert_allclose(cluster.centroid, pts.mean(axis=0), atol=1e-12)


def test_kmeans_duplicate_points_k1():
    pts = np.tile([[2.0, 3.0]], (6, 1))
    labels = kmeans_batch(pts, k=1, seed=0)
    np.testing.assert_array_equal(known_of(pts, labels).clusters[0].centroid, [2.0, 3.0])


def test_kmeans_k_exceeds_distinct_points():
    pts = np.tile([[1.0, 1.0]], (5, 1))
    with pytest.raises(ValueError):
        kmeans_batch(pts, k=2, seed=0)


def test_kmeans_needs_one_iteration():
    # zero iterations would leave every row unlabeled (-1), which is DBSCAN's noise
    with pytest.raises(ValueError, match="max_iters"):
        kmeans_batch(np.eye(3), k=2, seed=0, max_iters=0)


def test_kmeans_wcss_monotone_descent():
    rng = np.random.default_rng(13)
    pts, _ = blobs(rng, [(0, 0), (4, 4), (8, 0)], 30, std=1.5)
    values = [wcss(pts, kmeans_batch(pts, k=3, seed=7, max_iters=m)) for m in range(1, 8)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-9


def test_kmeans_deterministic_for_seed():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    a = kmeans_batch(pts, k=4, seed=9)
    validate_labels(a, 40)
    np.testing.assert_array_equal(a, kmeans_batch(pts, k=4, seed=9))


def brute_force_dbscan_partition(pts, eps, min_samples):
    """Reachability-closure oracle: core adjacency closure, borders attached.

    Returns (frozenset of core-point frozensets, set of core indices).
    """
    n = len(pts)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    neighborhood = [set(np.nonzero(dist[i] <= eps)[0]) for i in range(n)]
    core = {i for i in range(n) if len(neighborhood[i]) >= min_samples}
    # union core points whose distance <= eps
    parent = {i: i for i in core}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in core:
        for j in core:
            if j in neighborhood[i]:
                parent[find(i)] = find(j)
    groups = {}
    for i in core:
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}, core


def test_dbscan_two_blobs_brute_force():
    rng = np.random.default_rng(21)
    a = rng.uniform(-0.5, 0.5, size=(20, 2))
    b = rng.uniform(-0.5, 0.5, size=(20, 2)) + [10.0, 0.0]
    pts = np.vstack([a, b])
    labels = dbscan(pts, eps=2.0, min_samples=5)
    validate_labels(labels, 40)  # no noise
    assert labels.max() == 1
    want_partition, core = brute_force_dbscan_partition(pts, 2.0, 5)
    assert core == set(range(40))  # everything is core here
    assert partition(labels) == want_partition


def test_dbscan_isolated_point_is_noise():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [50.0, 50.0]])
    assert dbscan(pts, eps=1.0, min_samples=2).tolist() == [0, 0, 0, -1]


def test_dbscan_core_partition_permutation_invariant():
    rng = np.random.default_rng(5)
    pts, _ = blobs(rng, [(0, 0), (6, 6)], 12, std=0.8)
    base_partition, core = brute_force_dbscan_partition(pts, 1.5, 4)
    for trial in range(5):
        perm = rng.permutation(len(pts))
        labels = dbscan(pts[perm], eps=1.5, min_samples=4)
        got_core_partition = {
            frozenset(int(perm[i]) for i in rows if int(perm[i]) in core)
            for rows in partition(labels)
        }
        got_core_partition.discard(frozenset())
        assert got_core_partition == base_partition


def reference_dbscan_labels(pts, eps, min_samples):
    """The DBSCAN loop that pushed every neighbour of a core point, labeled
    or not, onto the queue: label per point, -1 for noise."""
    n = len(pts)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    UNVISITED, NOISE = -2, -1
    labels = np.full(n, UNVISITED)
    cid = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        neigh = np.nonzero(dist[i] <= eps)[0]
        if neigh.size < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cid
        queue = deque(int(j) for j in neigh)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cid
            if labels[j] != UNVISITED:
                continue
            labels[j] = cid
            jn = np.nonzero(dist[j] <= eps)[0]
            if jn.size >= min_samples:
                queue.extend(int(m) for m in jn)
        cid += 1
    return labels.tolist()


# the border point 1.0 is within eps of the cores 0.0 and 2.0, which lie in
# two clusters; scanned first, it is noise until the first cluster claims it
TWO_CORES_ONE_BORDER = ([1.0, -1.0, -0.75, -0.5, 0.0, 2.0, 2.5, 2.75, 3.0], 1.0, 4)


@settings(max_examples=300, deadline=None)
@given(pts=st.integers(1, 3).flatmap(lambda d: st.lists(
           st.lists(st.integers(0, 6).map(float), min_size=d, max_size=d), min_size=1, max_size=40)),
       eps=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_samples=st.integers(1, 6))
@example(pts=[[x] for x in TWO_CORES_ONE_BORDER[0]], eps=TWO_CORES_ONE_BORDER[1],
         min_samples=TWO_CORES_ONE_BORDER[2])
def test_dbscan_labels_match_reference_loop(pts, eps, min_samples):
    pts = np.array(pts)
    labels = dbscan(pts, eps=eps, min_samples=min_samples)
    validate_labels(labels, len(pts), noise=True)
    assert labels.tolist() == reference_dbscan_labels(pts, eps, min_samples)


def test_dbscan_border_point_goes_to_first_cluster():
    pts, eps, min_samples = TWO_CORES_ONE_BORDER
    labels = dbscan(np.array(pts)[:, None], eps=eps, min_samples=min_samples)
    assert labels.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]


def test_dbscan_parameter_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        dbscan(pts, eps=0.0, min_samples=2)
    with pytest.raises(ValueError):
        dbscan(pts, eps=1.0, min_samples=0)


def test_som_batch_four_blobs():
    rng = np.random.default_rng(8)
    centers = [(0, 0), (12, 0), (0, 12), (12, 12)]
    pts, labels = blobs(rng, centers, 40, std=0.8)
    got = som_batch(pts, k_units=4, epochs=8, seed=2)
    validate_labels(got, 160)
    assert got.max() == 3
    # generator labels are the oracle: each cluster holds exactly one blob
    for rows in partition(got):
        blob_ids = {labels[i] for i in rows}
        assert len(blob_ids) == 1
        assert len(rows) == 40


def test_som_batch_single_unit():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(30, 3))
    labels = som_batch(pts, k_units=1, epochs=2, seed=0)
    np.testing.assert_array_equal(labels, np.zeros(30, dtype=np.intp))


def test_som_batch_zero_epochs_valid_partition():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(25, 2)) * 0.05  # near the initial weight range
    validate_labels(som_batch(pts, k_units=3, epochs=0, seed=1), 25)


def test_som_batch_drops_units_that_win_nothing():
    # 10 units cannot all win among 5 points; the winners are renumbered densely
    pts = np.random.default_rng(12).normal(size=(5, 2))
    labels = som_batch(pts, k_units=10, epochs=0, seed=3)
    assert set(labels.tolist()) == set(range(labels.max() + 1))


def test_cluster_add_member_running_mean():
    c = Cluster(0, np.array([[0.0, 0.0], [2.0, 0.0]]), ["a", "b"])
    for i in range(50):
        c.add_member(np.array([float(i % 5), 1.0]), f"m{i}")
    np.testing.assert_allclose(c.centroid, c.points.mean(axis=0), atol=1e-9)
    assert len(c) == 52 and len(c.labels) == 52
    with pytest.raises(AttributeError):
        c.centroid = np.zeros(2)


@st.composite
def member_sequences(draw):
    dim = draw(st.integers(1, 4))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    rows = st.lists(coord, min_size=dim, max_size=dim)
    initial = draw(st.lists(rows, min_size=1, max_size=5))
    joins = draw(st.lists(st.tuples(rows, st.booleans()), max_size=40))
    return np.array(initial), [(np.array(x), fork) for x, fork in joins]


def check_max_sq_norm(cluster: Cluster):
    assert cluster.max_sq_norm == cluster.sq_norms.max()


@settings(max_examples=200, deadline=None)
@given(case=member_sequences(), update=st.booleans())
def test_cluster_centroid_tracks_member_mean(case, update):
    initial, joins = case
    cluster = Cluster(0, initial, [f"i{i}" for i in range(len(initial))])
    start = initial.mean(axis=0)
    check_max_sq_norm(cluster)
    for i, (x, fork) in enumerate(joins):
        if fork:
            # a copy grows on its own; the original keeps its maximum
            clone = copy.deepcopy(cluster)
            check_max_sq_norm(clone)
            clone.add_member(x * 2.0, f"c{i}", update_centroid=update)
            check_max_sq_norm(clone)
            check_max_sq_norm(cluster)
            assert len(clone) == len(cluster) + 1
        cluster.add_member(x, f"j{i}", update_centroid=update)
        check_max_sq_norm(cluster)
    if not update:
        assert np.array_equal(cluster.centroid, start)
        return
    # Each running-mean step c + (x - c) / k rounds three times, adding at most
    # 2.5 eps M to the error (M = largest |coordinate|) while shrinking the
    # error it inherits; np.mean of the initial and of all members rounds
    # by at most n eps M / 2 each. 4 N eps M covers the sum for N members.
    points = cluster.points
    bound = 4 * len(points) * np.finfo(float).eps * np.abs(points).max()
    assert np.all(np.abs(cluster.centroid - points.mean(axis=0)) <= bound)


@st.composite
def labeled_points(draw):
    """Points with random labels: dense cluster ids 0..C-1, some rows maybe -1."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 4))
    points = draw(arrays(np.float64, (n, dim), elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_subnormal=False)))
    raw = np.array(draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n)))
    # renumber densely; -1, when drawn, sorts first and maps back to -1
    labels = np.unique(raw, return_inverse=True)[1] - int(raw.min() < 0)
    return points, labels


@settings(max_examples=200, deadline=None)
@given(case=labeled_points())
def test_known_clusters_from_labels_holds_each_clusters_rows_in_order(case):
    points, labels = case
    ids = [f"s{i}" for i in range(len(points))]
    known = KnownClusters.from_labels(points, labels, ids)
    assert [c.id for c in known.clusters] == list(range(labels.max() + 1))
    all_sq_norms = np.einsum("ij,ij->i", points, points)
    for c in known.clusters:
        rows = np.flatnonzero(labels == c.id)
        assert c.labels == [ids[i] for i in rows]
        assert c.points.tobytes() == points[rows].tobytes()
        assert c.sq_norms.tobytes() == all_sq_norms[rows].tobytes()
        assert c.max_sq_norm == all_sq_norms[rows].max()
        assert c.centroid.tobytes() == points[labels == c.id].mean(axis=0).tobytes()
    # noise rows join no cluster
    assert sum(len(c) for c in known.clusters) == int((labels >= 0).sum())


def test_known_clusters_from_labels_rejects_a_label_gap():
    with pytest.raises(ValueError, match="at least one member"):
        KnownClusters.from_labels(np.zeros((3, 2)), np.array([0, 2, 2]), ["a", "b", "c"])


def test_known_clusters_serialization():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    known = KnownClusters.from_labels(pts, kmeans_batch(pts, k=2, seed=1), list("abcd"))
    d = known.to_dict()
    assert {c["id"] for c in d["clusters"]} == {c.id for c in known.clusters}
    assert all("centroid" in c and "member_ids" in c for c in d["clusters"])
    assert sorted(m for c in d["clusters"] for m in c["member_ids"]) == list("abcd")
