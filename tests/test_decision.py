import copy
import math

import numpy as np
import pytest

from famstream.batch import Cluster, KnownClusters
from famstream.decision import DecisionParams, accepts, route_sample, sweep_tau
from famstream.wknn import ReferenceSet, WKNNParams


def two_cluster_state():
    """Two separated clusters plus a matching reference set."""
    left = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    right = np.array([[20.0, 0.0], [22.0, 0.0], [21.0, 1.0], [21.0, -1.0]])
    known = KnownClusters([
        Cluster(0, left, [f"l{i}" for i in range(4)]),
        Cluster(1, right, [f"r{i}" for i in range(4)]),
    ])
    ref = ReferenceSet(points=np.vstack([left, right]), labels=[0] * 4 + [1] * 4)
    return known, ref


def test_accepts_hand_examples():
    members = np.array([[0.0, 0.0], [2.0, 0.0]])
    centroid = np.array([1.0, 0.0])
    # witness y=(2,0): d(y,c)=1 >= max(d(y,x)=0.5, d(x,c)=0.5)
    assert accepts(members, centroid, np.array([1.5, 0.0]), tau=0.0)
    # best witness y=(2,0): 1 < max(1, 2) -> rejected
    assert not accepts(members, centroid, np.array([3.0, 0.0]), tau=0.0)
    # x at the centroid is accepted for tau >= 0
    assert accepts(members, centroid, centroid, tau=0.0)


def test_accepts_empty_members():
    with pytest.raises(ValueError):
        accepts(np.empty((0, 2)), np.zeros(2), np.zeros(2), tau=0.0)


def test_accepts_tau_monotone():
    rng = np.random.default_rng(1)
    for _ in range(500):
        members = rng.normal(size=(int(rng.integers(1, 12)), 3))
        centroid = members.mean(axis=0)
        x = rng.normal(size=3) * 2
        t1, t2 = sorted(rng.normal(size=2) * 3)
        if accepts(members, centroid, x, t1):
            assert accepts(members, centroid, x, t2)


def test_accepts_member_itself_for_nonneg_tau():
    rng = np.random.default_rng(2)
    for _ in range(200):
        members = rng.normal(size=(int(rng.integers(2, 10)), 4))
        centroid = members.mean(axis=0)
        pick = members[int(rng.integers(0, len(members)))]
        assert accepts(members, centroid, pick, tau=float(abs(rng.normal())))


def test_accepts_inner_ball_rejection_for_negative_tau():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(500):
        members = rng.normal(size=(int(rng.integers(1, 10)), 3)) * 5
        centroid = members.mean(axis=0)
        tau = -float(rng.uniform(0.5, 4.0))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        x = centroid + direction * rng.uniform(0.0, -tau) * 0.999
        assert np.linalg.norm(x - centroid) < -tau
        assert not accepts(members, centroid, x, tau)
        hits += 1
    assert hits == 500


def test_route_sample_interior_acceptance_mutates_state():
    known, ref = two_cluster_state()
    dp = DecisionParams(tau=0.0)
    x = np.array([1.2, 0.1])
    before_ref = len(ref)
    assert route_sample(known, ref, WKNNParams(k=3), dp, x, "new-sample") == (0, True)
    cluster = known.clusters[0]
    assert len(cluster) == 5
    assert cluster.labels[-1] == "new-sample"
    np.testing.assert_allclose(cluster.centroid, cluster.points.mean(axis=0), atol=1e-9)
    assert len(ref) == before_ref + 1


def test_route_sample_far_point_routes_new_without_mutation():
    known, ref = two_cluster_state()
    dp = DecisionParams(tau=0.0)
    snapshot = copy.deepcopy(known)
    before_ref = len(ref)
    _, accepted = route_sample(known, ref, WKNNParams(k=3), dp, np.array([10.0, 9.0]), "far")
    assert not accepted
    assert len(ref) == before_ref
    for c_now, c_before in zip(known.clusters, snapshot.clusters):
        assert len(c_now) == len(c_before)
        np.testing.assert_array_equal(c_now.centroid, c_before.centroid)
        np.testing.assert_array_equal(c_now.points, c_before.points)


def test_route_sample_negative_tau_rejects_near_centroid():
    known, ref = two_cluster_state()
    dp = DecisionParams(tau=-2.0)
    centroid = known.clusters[0].centroid
    x = centroid + np.array([0.3, 0.0])  # d(x, c) = 0.3 < 2
    _, accepted = route_sample(known, ref, WKNNParams(k=3), dp, x, "inner")
    assert not accepted


def test_route_sample_flags():
    known, ref = two_cluster_state()
    dp = DecisionParams(tau=0.0, update_centroids=False, grow_reference=False,
                        grow_members=True)
    cluster = known.clusters[0]
    centroid_before = cluster.centroid.copy()
    _, accepted = route_sample(known, ref, WKNNParams(k=3), dp, np.array([1.2, 0.1]), "s1")
    assert accepted
    assert len(cluster) == 5
    np.testing.assert_array_equal(cluster.centroid, centroid_before)
    assert len(ref) == 8

    frozen = DecisionParams(tau=0.0, update_centroids=False, grow_reference=False,
                            grow_members=False)
    _, accepted = route_sample(known, ref, WKNNParams(k=3), frozen, np.array([0.8, -0.1]), "s2")
    assert accepted
    assert len(cluster) == 5  # member list untouched in frozen mode


def _ids(points):
    return [f"q{i}" for i in range(len(points))]


def naive_route_fraction(known, ref, k, tau, stream_points):
    """Independent sequential re-evaluation of the rule with python loops."""
    members = {c.id: [list(map(float, p)) for p in c.points] for c in known.clusters}
    centroids = {c.id: list(map(float, c.centroid)) for c in known.clusters}
    ref_pts = [list(map(float, p)) for p in ref.points]
    ref_labels = list(ref.labels)

    def dist(a, b):
        return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))

    new_count = 0
    for x in stream_points:
        x = list(map(float, x))
        order = sorted(range(len(ref_pts)), key=lambda i: (dist(x, ref_pts[i]), i))[:k]
        d = [dist(x, ref_pts[i]) for i in order]
        scores = {}
        for di, i in zip(d, order):
            w = 1.0 if d[-1] == d[0] else (d[-1] - di) / (d[-1] - d[0])
            scores[ref_labels[i]] = scores.get(ref_labels[i], 0.0) + w
        best = max(scores.values())
        tied = {lab for lab, s in scores.items() if s == best}
        label = next(ref_labels[i] for i in order if ref_labels[i] in tied)

        c = centroids[label]
        dxc = dist(x, c)
        accepted = any(
            dist(y, c) + tau >= max(dist(y, x), dxc) for y in members[label]
        )
        if accepted:
            members[label].append(x)
            n = len(members[label])
            centroids[label] = [cv + (xv - cv) / n for cv, xv in zip(c, x)]
            ref_pts.append(x)
            ref_labels.append(label)
        else:
            new_count += 1
    return new_count / len(stream_points)


def test_sweep_tau_matches_brute_force_and_preserves_state():
    rng = np.random.default_rng(9)
    known, ref = two_cluster_state()
    stream_points = np.vstack([
        rng.normal(size=(10, 2)) * 1.5 + [1.0, 0.0],
        rng.normal(size=(10, 2)) * 1.5 + [21.0, 0.0],
        rng.normal(size=(5, 2)) + [10.0, 8.0],
    ])
    ids = _ids(stream_points)
    counts_before = [len(c) for c in known.clusters]
    ref_before = len(ref)

    taus = [-1.0, 0.0, 1.0]
    sweep = sweep_tau(known, ref, WKNNParams(k=3), ids, stream_points, taus)
    assert [p.tau for p in sweep] == taus
    for point in sweep:
        want = naive_route_fraction(known, ref, 3, point.tau, stream_points)
        assert point.new_fraction == want

    # pristine replay: the sweep never mutates the caller's state
    assert [len(c) for c in known.clusters] == counts_before
    assert len(ref) == ref_before
    again = sweep_tau(known, ref, WKNNParams(k=3), ids, stream_points, taus)
    assert [(p.tau, p.new_fraction) for p in again] == [
        (p.tau, p.new_fraction) for p in sweep
    ]


def test_sweep_tau_huge_tau_rejects_nothing():
    known, ref = two_cluster_state()
    rng = np.random.default_rng(10)
    points = rng.normal(size=(12, 2)) * 3 + [10.0, 0.0]
    sweep = sweep_tau(known, ref, WKNNParams(k=3), _ids(points), points, [1e6])
    assert sweep[0].new_fraction == 0.0


def test_sweep_tau_empty_stream():
    known, ref = two_cluster_state()
    sweep = sweep_tau(known, ref, WKNNParams(k=3), [], np.empty((0, 2)), [0.0])
    assert sweep[0].new_fraction == 0.0


def test_decision_params_validation():
    with pytest.raises(ValueError):
        DecisionParams(tau=float("nan"))
    with pytest.raises(ValueError):
        sweep_tau(*two_cluster_state(), WKNNParams(k=1), [], np.empty((0, 2)), [])
