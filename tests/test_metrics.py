import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import distance
from scipy.spatial.distance import cdist

from famstream import metrics
from famstream.metrics import mean_silhouette, purity


def naive_silhouette(points, labels):
    """Independent O(n^2) oracle: pure-python loops, Rousseeuw definitions."""
    n = len(points)
    pts = [list(map(float, p)) for p in points]

    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])))

    clusters = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(lab, []).append(i)
    if len(clusters) < 2:
        raise ValueError("need 2 clusters")
    total = 0.0
    for i, lab in enumerate(labels):
        own = clusters[lab]
        if len(own) == 1:
            continue  # singleton contributes 0
        a = sum(dist(i, j) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(dist(i, j) for j in members) / len(members)
            for other, members in clusters.items()
            if other != lab
        )
        denom = max(a, b)
        total += 0.0 if denom == 0.0 else (b - a) / denom
    return total / n


def test_purity_hand_example():
    # C1 = {A, A, B}, C2 = {B, B} -> (2 + 2) / 5 = 0.8
    assignments = {"s1": 1, "s2": 1, "s3": 1, "s4": 2, "s5": 2}
    labels = {"s1": "A", "s2": "A", "s3": "B", "s4": "B", "s5": "B"}
    report = purity(assignments, labels)
    assert report.purity == 0.8
    by_id = {c.cluster_id: c for c in report.per_cluster}
    assert by_id[1].dominant_family == "A" and by_id[1].size == 3
    assert by_id[1].purity == 2 / 3
    assert by_id[2].purity == 1.0


def test_purity_pure_clusters():
    assignments = {"a": 0, "b": 0, "c": 1}
    labels = {"a": "x", "b": "x", "c": "y"}
    assert purity(assignments, labels).purity == 1.0


def test_purity_even_split_tie():
    assignments = {"a": 0, "b": 0}
    labels = {"a": "x", "b": "y"}
    report = purity(assignments, labels)
    assert report.purity == 0.5
    assert report.per_cluster[0].dominant_family == "x"  # lexicographic tie-break


def test_purity_invariances():
    rng = np.random.default_rng(0)
    ids = [f"s{i}" for i in range(60)]
    assignments = {sid: int(rng.integers(0, 4)) for sid in ids}
    labels = {sid: f"fam{rng.integers(0, 3)}" for sid in ids}
    base = purity(assignments, labels).purity
    relabeled = {sid: cid + 17 for sid, cid in assignments.items()}
    assert purity(relabeled, labels).purity == base
    shuffled = dict(sorted(assignments.items(), key=lambda kv: hash(kv[0])))
    assert purity(shuffled, labels).purity == base


def test_purity_missing_labels_listed():
    with pytest.raises(ValueError) as err:
        purity({"a": 0, "b": 0}, {"a": "x"})
    assert "b" in str(err.value)


def test_purity_weighted_recombination():
    rng = np.random.default_rng(5)
    ids = [f"s{i}" for i in range(200)]
    assignments = {sid: int(rng.integers(0, 6)) for sid in ids}
    labels = {sid: f"fam{rng.integers(0, 4)}" for sid in ids}
    report = purity(assignments, labels)
    recombined = sum(c.size * c.purity for c in report.per_cluster) / len(ids)
    assert abs(recombined - report.purity) <= 1e-12


def test_silhouette_two_pair_example():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = [0, 0, 1, 1]
    got = mean_silhouette(points, [labels])[0]
    b = (10.0 + math.sqrt(101.0)) / 2.0
    expected = (b - 1.0) / b  # same s for all four points by symmetry
    assert abs(got - expected) <= 1e-12
    assert abs(got - 0.9003) <= 1e-3


def test_silhouette_interleaved_identical_points_negative():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    labels = [0, 0, 1, 1]
    # each point's nearest foreign cluster contains its own duplicate
    assert mean_silhouette(points, [labels])[0] < 0


def test_silhouette_duplicated_members_far_clusters():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    labels = [0, 0, 1, 1]
    assert mean_silhouette(points, [labels])[0] == 1.0  # a = 0, b > 0


def test_silhouette_singleton_contributes_zero():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 1.0]])
    labels = [0, 1, 1]
    got = mean_silhouette(points, [labels])[0]
    # hand: singleton s=0; for (5,0): a=1, b=5 -> 0.8; for (5,1): a=1, b=sqrt(26) -> (sqrt(26)-1)/sqrt(26)
    s3 = (math.sqrt(26.0) - 1.0) / math.sqrt(26.0)
    expected = (0.0 + 0.8 + s3) / 3.0
    assert abs(got - expected) <= 1e-12


def test_silhouette_requires_two_clusters():
    with pytest.raises(ValueError):
        mean_silhouette(np.zeros((3, 2)), [[0, 0, 0]])


def test_silhouette_matches_naive_oracle():
    rng = np.random.default_rng(123)
    for trial in range(12):
        n = int(rng.integers(10, 120))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        points = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        labels = [int(rng.integers(0, k)) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        got = mean_silhouette(points, [labels])[0]
        want = naive_silhouette(points, labels)
        assert abs(got - want) <= 1e-9, f"trial {trial}"


def test_silhouette_isometry_invariance():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(80, 4))
    labels = [int(rng.integers(0, 3)) for _ in range(80)]
    labels[:3] = [0, 1, 2]
    base = mean_silhouette(points, [labels])[0]
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    moved = points @ q + rng.normal(size=4)
    assert abs(mean_silhouette(moved, [labels])[0] - base) <= 1e-9


LABEL_IDS = [-7, -1, 0, 3, 10, 1000]   # negative and non-contiguous cluster ids


def spy_cdist():
    return mock.patch.object(distance, "cdist", wraps=cdist)


def group_count(labelings, limit):
    """Runs of consecutive labelings whose cluster counts total at most limit
    (a labeling over the limit is a run of its own)."""
    groups, total = 0, 0
    for labels in labelings:
        k = len(set(np.asarray(labels).tolist()))
        if groups == 0 or total + k > limit:
            groups, total = groups + 1, 0
        total += k
    return groups


def assert_symmetric_passes(spy, n, block, passes):
    """Per pass, one cdist per unordered pair of blocks and about half the
    matrix."""
    blocks = math.ceil(n / block)
    assert spy.call_count == passes * blocks * (blocks + 1) // 2
    entries = sum(len(call.args[0]) * len(call.args[1]) for call in spy.call_args_list)
    assert entries <= passes * n * (n + block) / 2


@st.composite
def shared_pass_cases(draw):
    block = draw(st.integers(1, 6))
    n = draw(st.integers(2, 4 * block + 1))   # below, at and above multiples of block
    d = draw(st.integers(1, 3))
    coord = st.one_of(
        st.integers(-2, 2).map(float),       # lattice: duplicate points, a = b = 0
        st.floats(-10, 10, allow_nan=False, allow_subnormal=False),
    )
    points = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    labeling = st.lists(st.sampled_from(LABEL_IDS), min_size=n, max_size=n).filter(
        lambda labels: len(set(labels)) >= 2
    )
    labelings = draw(st.lists(labeling, min_size=1, max_size=6))
    group = draw(st.integers(2, 12))   # labelings have 2 to 6 clusters
    return block, group, points, labelings


@settings(max_examples=300, deadline=None)
@given(case=shared_pass_cases())
def test_shared_pass_equals_each_alone_and_oracle(case):
    block, group, points, labelings = case
    with mock.patch.object(metrics, "_BLOCK", block), mock.patch.object(metrics, "_GROUP", group):
        with spy_cdist() as spy:
            together = mean_silhouette(points, labelings)
        assert_symmetric_passes(spy, len(points), block, group_count(labelings, group))
        alone = [mean_silhouette(points, [labels])[0] for labels in labelings]
    assert together == alone
    for got, labels in zip(together, labelings):
        assert abs(got - naive_silhouette(points, labels)) <= 1e-12


@pytest.mark.parametrize("n", [255, 256, 257, 512, 513])
def test_shared_pass_at_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, 3))
    points[1] = points[0]
    labelings = [rng.integers(0, 7, size=n) for _ in range(36)]
    labelings.append(np.arange(n) % 300)   # more clusters than a block has rows
    labelings += [rng.integers(-5, 2, size=n) * 3 for _ in range(4)]
    # clusters 9 and 8 hold only the first 100 and the last 50 points, so
    # some blocks miss them
    edges = rng.integers(0, 2, size=n)
    edges[:100], edges[-50:] = 9, 8
    labelings.append(edges)
    with spy_cdist() as spy:
        together = mean_silhouette(points, labelings)
    passes = group_count(labelings, metrics._GROUP)
    assert passes > 1   # the clusters total more than one group holds
    assert_symmetric_passes(spy, n, metrics._BLOCK, passes)
    assert together == [mean_silhouette(points, [labels])[0] for labels in labelings]
    for i in (0, 36, 40, 41):
        assert abs(together[i] - naive_silhouette(points, labelings[i])) <= 1e-12


@st.composite
def block_pairs(draw):
    """Two matrices of 0 to 300 rows (more than one block) with shared,
    repeated rows, entries from 1e-150 to 1e150 in magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 5, 40]))
    pool = rng.normal(size=(draw(st.integers(1, 50)), d)) * 10.0 ** rng.integers(-150, 151, size=d)
    return tuple(pool[rng.integers(0, len(pool), size=draw(st.integers(0, 300)))] for _ in "AB")


@settings(max_examples=100, deadline=None)
@given(pair=block_pairs())
def test_cdist_is_symmetric_bit_for_bit(pair):
    # the symmetric pass reads cdist(X_J, X_I) off cdist(X_I, X_J).T
    A, B = pair
    assert cdist(A, B).tobytes() == np.ascontiguousarray(cdist(B, A).T).tobytes()


def test_labelings_validated_before_the_pass():
    points = np.arange(12.0).reshape(6, 2)
    good = [0, 0, 1, 1, 2, 2]
    with spy_cdist() as spy:
        with pytest.raises(ValueError, match="at least 2 clusters"):
            mean_silhouette(points, [good, good, [4] * 6])
        with pytest.raises(ValueError, match="6 points but 5 labels"):
            mean_silhouette(points, [good, good, good[:5]])
    assert spy.call_count == 0
    assert mean_silhouette(points, []) == []
