import math

import numpy as np
import pytest

from famstream.data import DimensionMismatchError
from famstream.wknn import ReferenceSet, WKNNParams, classify


def brute_force_classify(points, labels, k, weighting, x):
    """Independent oracle: python loops, direct evaluation of the weighted
    majority vote with Dudani weights."""
    dists = [
        (math.sqrt(sum((a - b) ** 2 for a, b in zip(p, x))), i)
        for i, p in enumerate(points)
    ]
    dists.sort(key=lambda t: (t[0], t[1]))  # ties keep insertion order
    top = dists[:k]
    d1, dk = top[0][0], top[-1][0]
    scores = {}
    for d, i in top:
        if weighting == "uniform" or dk == d1:
            w = 1.0
        else:
            w = (dk - d) / (dk - d1)
        scores[labels[i]] = scores.get(labels[i], 0.0) + w
    best = max(scores.values())
    tied = {lab for lab, s in scores.items() if s == best}
    for d, i in top:
        if labels[i] in tied:
            return labels[i]
    raise AssertionError("unreachable")


def test_classify_nearest_coincident_point():
    ref = ReferenceSet(points=[[0.0, 0.0], [5.0, 5.0]], labels=[3, 7])
    label, (rows, dists) = classify(ref, WKNNParams(k=1), np.array([0.0, 0.0]))
    assert label == 3
    assert rows.tolist() == [0] and dists.tolist() == [0.0]


def test_reference_set_takes_array_labels_as_a_list():
    points = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 0.0]])
    from_array = ReferenceSet(points, np.array([3, 7, 7]))
    from_list = ReferenceSet(points, [3, 7, 7])
    np.testing.assert_array_equal(from_array.points, from_list.points)
    assert from_array.labels == from_list.labels == [3, 7, 7]
    assert all(type(label) is int for label in from_array.labels)
    params = WKNNParams(k=2)
    for x in ([0.0, 0.0], [4.0, 4.0], [0.6, 0.0]):
        got, (rows, dists) = classify(from_array, params, np.array(x))
        want, (want_rows, want_dists) = classify(from_list, params, np.array(x))
        assert got == want
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(dists, want_dists)


def test_classify_hand_weights():
    # neighbor distances (1, 2, 3) with labels (A, B, B):
    # weights (1, 0.5, 0) -> A wins 1.0 to 0.5
    ref = ReferenceSet(points=[[1.0], [2.0], [3.0]], labels=[0, 1, 1])
    label, (rows, dists) = classify(ref, WKNNParams(k=3, weighting="distance"), np.array([0.0]))
    assert label == 0
    assert rows.tolist() == [0, 1, 2]
    assert [round(d, 12) for d in dists.tolist()] == [1.0, 2.0, 3.0]


def test_classify_all_equidistant_branch():
    # d_k == d_1: every weight is 1, so majority wins -> B
    ref = ReferenceSet(points=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], labels=[0, 1, 1])
    label, _ = classify(ref, WKNNParams(k=3, weighting="distance"), np.array([0.0, 0.0]))
    assert label == 1


def test_classify_uniform_weighting():
    ref = ReferenceSet(points=[[1.0], [2.0], [3.0]], labels=[0, 1, 1])
    label, _ = classify(ref, WKNNParams(k=3, weighting="uniform"), np.array([0.0]))
    assert label == 1  # two votes beat one


def test_classify_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 9) + 1))
        weighting = "distance" if trial % 2 == 0 else "uniform"
        points = rng.normal(size=(n, d))
        labels = [int(l) for l in rng.integers(0, 4, size=n)]
        ref = ReferenceSet(points=points, labels=labels)
        x = rng.normal(size=d)
        got, _ = classify(ref, WKNNParams(k=k, weighting=weighting), x)
        want = brute_force_classify(points, labels, k, weighting, x)
        assert got == want, f"trial {trial}"


def test_weights_bounds_and_nearest_weight():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 3))
    labels = [int(l) for l in rng.integers(0, 3, size=30)]
    ref = ReferenceSet(points=points, labels=labels)
    x = rng.normal(size=3)
    _, (_, d) = classify(ref, WKNNParams(k=5), x)
    assert np.all(np.diff(d) >= 0)
    if d[-1] != d[0]:
        w = (d[-1] - d) / (d[-1] - d[0])
        assert np.all((0.0 <= w) & (w <= 1.0))
        assert w[0] == 1.0


def test_scaling_invariance_of_label():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(40, 4))
    labels = [int(l) for l in rng.integers(0, 3, size=40)]
    x = rng.normal(size=4)
    for scale in (0.01, 3.0, 1000.0):
        a, _ = classify(ReferenceSet(points=points, labels=labels), WKNNParams(k=5), x)
        b, _ = classify(
            ReferenceSet(points=points * scale, labels=labels), WKNNParams(k=5), x * scale
        )
        assert a == b


def test_add_then_classify_self():
    ref = ReferenceSet(points=[[0.0, 0.0]], labels=[0])
    ref.add(np.array([9.0, 9.0]), 4)
    label, _ = classify(ref, WKNNParams(k=1), np.array([9.0, 9.0]))
    assert label == 4


def test_add_reference_bootstrap_from_empty():
    ref = ReferenceSet(dim=2)
    with pytest.raises(ValueError):
        classify(ref, WKNNParams(k=1), np.zeros(2))
    ref.add(np.array([1.0, 1.0]), 2)
    label, _ = classify(ref, WKNNParams(k=1), np.zeros(2))
    assert label == 2


def test_growth_does_not_change_far_queries():
    rng = np.random.default_rng(7)
    left = rng.normal(size=(20, 2)) * 0.2
    right = rng.normal(size=(20, 2)) * 0.2 + [50.0, 0.0]
    points = np.vstack([left, right])
    labels = [0] * 20 + [1] * 20
    queries = rng.normal(size=(30, 2)) * 0.2 + [50.0, 0.0]
    params = WKNNParams(k=3)

    ref = ReferenceSet(points=points, labels=labels)
    before = [classify(ref, params, q)[0] for q in queries]
    for _ in range(25):  # grow near the left group only
        ref.add(rng.normal(size=2) * 0.2, 0)
    after = [classify(ref, params, q)[0] for q in queries]
    assert before == after


def test_classify_errors():
    ref = ReferenceSet(points=[[0.0, 0.0]], labels=[0])
    with pytest.raises(ValueError):
        classify(ref, WKNNParams(k=2), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        classify(ref, WKNNParams(k=1), np.zeros(3))
    with pytest.raises(ValueError):
        WKNNParams(k=0)
    with pytest.raises(ValueError):
        WKNNParams(k=1, weighting="cosine")


def test_distance_ties_keep_insertion_order():
    # four reference points at identical distance; k=2 must take the first two
    ref = ReferenceSet(
        points=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        labels=[5, 6, 7, 8],
    )
    _, (rows, _) = classify(ref, WKNNParams(k=2), np.array([0.0, 0.0]))
    assert rows.tolist() == [0, 1]
    np.testing.assert_array_equal(ref.points[rows], [[1.0, 0.0], [-1.0, 0.0]])


def test_reference_set_serialization():
    ref = ReferenceSet(points=[[0.0, 1.0], [2.0, 3.0]], labels=[1, 2])
    back = ReferenceSet.from_dict(ref.to_dict())
    np.testing.assert_array_equal(back.points, ref.points)
    assert back.labels == ref.labels
    empty = ReferenceSet.from_dict(ReferenceSet(dim=3).to_dict())
    assert len(empty) == 0 and empty.dim == 3
