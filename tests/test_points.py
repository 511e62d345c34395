"""The distance kernel and the routing decisions built on it.

classify and accepts take their distances from one matrix-vector product and
recompute exactly only near ties. Their answers must equal the full-scan
formulas they replaced, written out here as oracles, bit for bit.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from famstream import decision, wknn
from famstream.batch import Cluster
from famstream.data import Route
from famstream.decision import DecisionParams, accepts, route_sample
from famstream.pipeline import PipelineConfig, build_known_model, fit_projection
from famstream.points import (
    EPS,
    EPS32,
    R_RANGE,
    PointBuffer,
    as_float32,
    condensed_dists,
    pair_dists,
    sq_dists,
)
from famstream.wknn import ReferenceSet, WKNNParams, classify


def full_sort_classify(points, labels, k, weighting, x):
    """Every distance, one stable full sort: (label, neighbor indices, distances)."""
    diff = points - x
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.argsort(dists, kind="stable")[:k]
    d = dists[order]
    d1, dk = float(d[0]), float(d[-1])
    weights = np.ones(k) if weighting == "uniform" or dk == d1 else (dk - d) / (dk - d1)
    scores = {}
    for idx, w in zip(order, weights):
        scores[labels[idx]] = scores.get(labels[idx], 0.0) + float(w)
    top = max(scores.values())
    tied = {lab for lab, s in scores.items() if s == top}
    winner = next(labels[idx] for idx in order if labels[idx] in tied)
    return winner, order.tolist(), d.tolist()


def full_matrix_accepts(members, centroid, x, tau):
    """Both distance rows over every member, then the witness test."""
    d_xc = float(np.sqrt(np.sum((x - centroid) ** 2)))
    diff_c = members - centroid
    diff_x = members - x
    d_yc = np.sqrt(np.einsum("ij,ij->i", diff_c, diff_c))
    d_yx = np.sqrt(np.einsum("ij,ij->i", diff_x, diff_x))
    return bool(np.any(d_yc + tau >= np.maximum(d_yx, d_xc)))


def python_accepts(members, centroid, x, tau):
    """Plain-float brute force; exact on small integer lattices."""
    c, xs = centroid.tolist(), x.tolist()
    d_xc = math.dist(xs, c)
    return any(math.dist(y, c) + tau >= max(math.dist(y, xs), d_xc) for y in members.tolist())


def check_classify(points, labels, k, weighting, x):
    ref = ReferenceSet(points=points, labels=labels)
    got, (rows, got_dists) = classify(ref, WKNNParams(k=k, weighting=weighting), x)
    want, order, dists = full_sort_classify(points, labels, k, weighting, x)
    assert got == want
    assert got_dists.tolist() == dists
    np.testing.assert_array_equal(ref.points[rows], points[order])


# Small integer lattices give exact distance ties, duplicate points and
# witness margins of exactly 0; a shared pool of float vectors gives
# duplicates away from the lattice.
dims = st.integers(1, 4)


@st.composite
def point_sets(draw, min_size=1, max_size=24):
    d = draw(dims)
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        coords = draw(st.lists(st.integers(-3, 3), min_size=n * d + d, max_size=n * d + d))
        flat = np.array(coords, dtype=np.float64)
        return flat[: n * d].reshape(n, d), flat[n * d:]
    pool_size = draw(st.integers(1, n + 1))
    # magnitudes below 1e-6 become 0, so no square underflows
    values = st.floats(-1e3, 1e3).map(lambda v: 0.0 if abs(v) < 1e-6 else v)
    pool = np.array(draw(st.lists(values, min_size=pool_size * d, max_size=pool_size * d)))
    pool = pool.reshape(pool_size, d)
    picks = draw(st.lists(st.integers(0, pool_size - 1), min_size=n + 1, max_size=n + 1))
    return pool[picks[:n]], pool[picks[n]]


@settings(max_examples=300, deadline=None)
@given(data=point_sets(), k_frac=st.floats(0, 1), uniform=st.booleans(),
       n_labels=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_classify_equals_full_sort(data, k_frac, uniform, n_labels, seed):
    points, x = data
    k = 1 + int(k_frac * (len(points) - 1))
    labels = np.random.default_rng(seed).integers(0, n_labels, size=len(points)).tolist()
    check_classify(points, labels, k, "uniform" if uniform else "distance", x)


@settings(max_examples=300, deadline=None)
@given(data=point_sets(), centroid_mode=st.sampled_from(["mean", "lattice"]),
       tau=st.one_of(st.integers(-4, 4).map(float), st.floats(-5, 5)))
def test_accepts_equals_full_matrix(data, centroid_mode, tau):
    members, x = data
    if centroid_mode == "mean":
        centroid = members.mean(axis=0)
    else:
        centroid = np.round(members[-1] * 0.5)
    got = accepts(members, centroid, x, tau)
    assert got == full_matrix_accepts(members, centroid, x, tau)
    if np.all(members == np.round(members)) and np.all(x == np.round(x)) and tau == round(tau):
        if np.all(centroid == np.round(centroid)):
            assert got == python_accepts(members, centroid, x, tau)


@settings(max_examples=200, deadline=None)
@given(data=point_sets(), scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]))
def test_sq_dists_within_bound(data, scale):
    points, x = data
    points, x = points * scale, x * scale
    buf = PointBuffer(points, [0] * len(points))
    s, err = sq_dists(buf.points32, buf.sq_norms, buf.max_sq_norm, x)
    diff = points - x
    exact = np.einsum("ij,ij->i", diff, diff)
    r = math.sqrt(buf.max_sq_norm) + math.sqrt(float(x @ x))
    if R_RANGE[0] <= r <= R_RANGE[1]:
        assert np.all(np.abs(s - exact) <= err)
    else:  # outside the float32 bound's range no row is formed
        assert s is None and err == math.inf


def test_sq_dists_bound_needs_its_float32_term():
    """Rounding to float32 errs far beyond the float64 terms' part of the
    bound, (n + 6) EPS R^2, on plain data, and stays within err."""
    rng = np.random.default_rng(7)
    points = rng.normal(size=(2000, 40)) / math.sqrt(40)
    x = rng.normal(size=40) / math.sqrt(40)
    buf = PointBuffer(points, [0] * len(points))
    s, err = sq_dists(buf.points32, buf.sq_norms, buf.max_sq_norm, x)
    diff = points - x
    errors = np.abs(s - np.einsum("ij,ij->i", diff, diff))
    r = math.sqrt(buf.max_sq_norm) + math.sqrt(float(x @ x))
    assert errors.max() <= err
    assert errors.max() > (40 + 6) * EPS * r * r


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_mirrored(store):
    assert store.points32.dtype == np.float32
    assert same_bits(store.points32, store.points.astype(np.float32))


@st.composite
def fork_cases(draw):
    """Initial rows, rows both sides add before a deep copy, and rows added
    after it: each with the side that takes it and a centroid-update flag.
    Up to 40 additions cross several capacity doublings on either side."""
    dim = draw(st.integers(1, 4))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    row = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
    initial = draw(st.lists(row, min_size=1, max_size=9))
    before = draw(st.lists(st.tuples(row, st.booleans()), max_size=10))
    after = draw(st.lists(st.tuples(st.booleans(), row, st.booleans()), max_size=30))
    return np.array(initial), before, after


def store_kinds(initial):
    """A ReferenceSet and a Cluster over the same rows, each with a function
    that adds one labeled row (the Cluster moving its centroid or not)."""
    n = len(initial)
    return (
        (lambda: ReferenceSet(points=initial, labels=list(range(n))),
         lambda store, x, i, update: store.add(x, i)),
        (lambda: Cluster(0, initial, [f"i{j}" for j in range(n)]),
         lambda store, x, i, update: store.add_member(x, f"m{i}", update_centroid=update)),
    )


@settings(max_examples=150, deadline=None)
@given(case=fork_cases())
def test_deep_copies_grow_independently(case):
    # Each store is compared with a twin that took the same additions and was
    # never copied from or into.
    initial, before, after = case
    for make, grow in store_kinds(initial):
        original, twin, clone_twin = make(), make(), make()
        assert_mirrored(original)
        for i, (x, update) in enumerate(before):
            for store in (original, twin, clone_twin):
                grow(store, x, i, update)
                assert_mirrored(store)
        clone = copy.deepcopy(original)
        assert_mirrored(clone)
        for i, (to_clone, x, update) in enumerate(after, start=len(before)):
            for store in (clone, clone_twin) if to_clone else (original, twin):
                grow(store, x, i, update)
                assert_mirrored(store)
        for got, want in ((original, twin), (clone, clone_twin)):
            assert type(got) is type(want) and got.labels == want.labels
            assert same_bits(got.points, want.points)
            assert same_bits(got.points32, want.points32)
            if isinstance(got, ReferenceSet):
                loaded = ReferenceSet.from_dict(got.to_dict())
                assert same_bits(loaded.points, got.points)
                assert_mirrored(loaded)
            assert same_bits(got.sq_norms, want.sq_norms)
            assert got.max_sq_norm == want.max_sq_norm == got.sq_norms.max()
            if isinstance(want, Cluster):
                assert same_bits(got.centroid, want.centroid)


@st.composite
def row_sets(draw):
    """Two matrices of 0 to 30 rows, rows drawn with repeats from one pool,
    entries from 1e-150 to 1e150 in magnitude."""
    d = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40]))
    entry = st.builds(lambda m, e: m * 10.0 ** e,
                      st.floats(-10, 10, allow_subnormal=False), st.integers(-150, 150))
    pool_size = draw(st.integers(1, 12))
    pool = np.array(draw(st.lists(entry, min_size=pool_size * d, max_size=pool_size * d)))
    pool = pool.reshape(pool_size, d)
    picks = st.lists(st.integers(0, pool_size - 1), max_size=30)
    return pool[np.array(draw(picks), dtype=np.intp)], pool[np.array(draw(picks), dtype=np.intp)]


@settings(max_examples=200, deadline=None)
@given(data=row_sets())
def test_pair_dists_match_scipy_bits(data):
    A, B = data
    assert same_bits(pair_dists(A, B), cdist(A, B))
    assert same_bits(condensed_dists(A), pdist(A))


@pytest.fixture
def spy_exact(monkeypatch):
    """Record how many rows each exact recomputation covers, per module."""
    calls = {"wknn": [], "decision": []}
    for name, module in (("wknn", wknn), ("decision", decision)):
        real = module.exact_dists

        def spy(points, x, _real=real, _log=calls[name]):
            _log.append(len(points))
            return _real(points, x)

        monkeypatch.setattr(module, "exact_dists", spy)
    return calls


def test_classify_recomputes_only_candidates(spy_exact):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(500, 6))
    check_classify(points, [i % 3 for i in range(500)], 5, "distance", rng.normal(size=6))
    assert spy_exact["wknn"] == [5]
    # four points tie at the 2nd distance: all four are candidates
    ring = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [5.0, 5.0]])
    check_classify(ring, [5, 6, 7, 8, 9], 2, "distance", np.zeros(2))
    assert spy_exact["wknn"][-1] == 4
    # norms far beyond the bound's range: every row is a candidate
    check_classify(points[:50] * 1e200, [i % 3 for i in range(50)], 5, "distance",
                   np.zeros(6))
    assert spy_exact["wknn"][-1] == 50


def test_decisions_far_from_the_origin():
    # Norms of 2e4 swamp squared distances near 1e-10: the product form's
    # order is rounding noise there, and only the exact recheck sorts it out.
    rng = np.random.default_rng(12)
    for _ in range(20):
        points = 1e4 + rng.normal(size=(200, 4)) * 1e-5
        x = 1e4 + rng.normal(size=4) * 1e-5
        check_classify(points, [i % 4 for i in range(200)], 3, "distance", x)
        centroid = points.mean(axis=0)
        for tau in (-2e-5, -1e-5, 0.0, 1e-5):
            want = full_matrix_accepts(points, centroid, x, tau)
            assert accepts(points, centroid, x, tau) == want


@st.composite
def extreme_cases(draw):
    """Members and x at scales 1e-100 to 1e100, one of them beyond 1e20 or
    below 1e-20: outside the float32 bound's range, or inside it with rows
    that underflow float32 (or, beyond 3.4e38, overflow it). Rows repeat
    from a pool, and tau is a multiple of the larger scale."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extreme = draw(st.one_of(st.integers(21, 100), st.integers(-100, -21)))
    other = draw(st.integers(-100, 100))
    e_members, e_x = (extreme, other) if draw(st.booleans()) else (other, extreme)
    pool = 10.0**e_members * rng.normal(size=(draw(st.integers(1, n)), d))
    members = pool[rng.integers(0, len(pool), size=n)]
    x = 10.0**e_x * rng.normal(size=d)
    tau = draw(st.floats(-2, 2)) * 10.0 ** max(e_members, e_x)
    labels = rng.integers(0, 3, size=n).tolist()
    return members, x, tau, labels, int(rng.integers(1, n + 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(case=extreme_cases())
def test_decisions_beyond_the_float32_range(case):
    members, x, tau, labels, k = case
    check_classify(members, labels, k, "distance", x)
    centroid = members.mean(axis=0)
    want = full_matrix_accepts(members, centroid, x, tau)
    assert accepts(members, centroid, x, tau) == want
    cluster = Cluster(0, members[:1], ["m0"])  # the rest arrive through add
    for i, y in enumerate(members[1:], start=1):
        cluster.add(y, f"m{i}")
    assert accepts(cluster.points, centroid, x, tau, sq_norms=cluster.sq_norms,
                   max_sq_norm=cluster.max_sq_norm, points32=cluster.points32) == want


@st.composite
def witness_cases(draw):
    """Members, centroid, x and a tau within a few ulps of the tau at which
    one member's margin is exactly 0, the value the exact rule turns on.

    Points sit near the origin or 1e4 from it. Stretching x away from the
    centroid gives tau up to +1e6 times the data scale; putting the witness
    twice as far out as a stretched x, on its side, gives tau down to -1e6
    times the scale. A fixed tau from 0 to 1e6 times the scale, either sign,
    stands in for the constructed one some of the time.
    """
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1e4]))
    members = offset + scale * rng.normal(size=(n, d))
    centroid = members.mean(axis=0)
    x = offset + scale * rng.normal(size=d)
    stretch = draw(st.sampled_from([1.0, 1e3, 1e6]))
    x = centroid + stretch * (x - centroid)
    w = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        members[w] = centroid + 2.0 * (x - centroid) + scale * rng.normal(size=d)
    y = members[w]
    dist = lambda a, b: float(np.sqrt(np.sum((a - b) ** 2)))  # noqa: E731
    tau = max(dist(y, x), dist(x, centroid)) - dist(y, centroid)
    for _ in range(draw(st.integers(0, 3))):
        tau = float(np.nextafter(tau, draw(st.sampled_from([-np.inf, np.inf]))))
    if draw(st.integers(0, 3)) == 0:
        tau = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * scale * draw(st.sampled_from([-1, 1]))
    return members, centroid, x, tau


@settings(max_examples=400, deadline=None)
@given(case=witness_cases())
def test_accepts_equals_full_matrix_near_zero_margins(case):
    members, centroid, x, tau = case
    assert accepts(members, centroid, x, tau) == full_matrix_accepts(members, centroid, x, tau)


def test_accepts_decides_from_the_bound_and_rechecks_near_zero(spy_exact, monkeypatch):
    members = np.array([[0.0], [2.0]])
    centroid = np.array([1.0])
    rows = []  # one entry per bounded distance row: its query point
    real = decision.sq_dists

    def spy(points, sq_norms, max_sq_norm, q):
        rows.append(float(q[0]))
        return real(points, sq_norms, max_sq_norm, q)

    monkeypatch.setattr(decision, "sq_dists", spy)

    def run(x, tau):
        rows.clear()
        spy_exact["decision"].clear()
        got = accepts(members, centroid, np.array([x]), tau)
        assert got == full_matrix_accepts(members, centroid, np.array([x]), tau)
        return got, list(rows), list(spy_exact["decision"])

    # every d(y, c) is 1, so reach is 1 + tau
    assert run(1.5, 0.0) == (True, [1.0, 1.5], [])  # margin 0.5: accepted from the bounds
    # x at the centroid: reach 0.5 against d(y, x) = 1, margins -0.5: rejected from the bounds
    assert run(1.0, -0.5) == (False, [1.0, 1.0], [])
    # d(x, c) = 8 beats every reach: the far exit rejects before the d(y, x) row
    assert run(9.0, 0.0) == (False, [1.0], [])
    # y=2, x=3: reach 1 + tau against max(d(y,x), d(x,c)) = 2; y's d(y, x) and
    # d(y, c) are both recomputed
    assert run(3.0, 1.0) == (True, [1.0, 3.0], [1, 1])  # margin exactly 0: witness
    assert run(3.0, 1.0 - 1e-12) == (False, [1.0, 3.0], [1, 1])  # just below 0: none


def test_accepts_survives_worst_case_row_errors(monkeypatch):
    """Both bounded rows off by nearly their whole bound, in opposite
    directions, so the margins err by up to about sqrt(err_c) + sqrt(err_x):
    only the two-row slack covers that.

    Real rounding stays far below the bound, so a stand-in for `sq_dists`
    returns the exact sums of squares of the float64 members moved by
    (n + 2) / (n + 6) * err, inside the bound by more than `accepts`' roundings
    need: the centroid row one way and the sample row the other, told apart
    by the query, in both directions. Members lie
    within about that shift's square root of a centroid far from the origin
    and x near the origin, so err_c is about four times err_x and the
    centroid row's error after the square root is near its largest.
    """
    real = decision.sq_dists
    rng = np.random.default_rng(21)
    mismatches = []
    for _ in range(100):
        d, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        unit = rng.normal(size=(n + 1, d))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        centroid = 10.0 ** rng.uniform(-3, 6) * unit[0]
        x = np.zeros(d) if rng.integers(2) else 1e-3 * rng.normal(size=d) * centroid
        bound = (d + 10) * EPS32 + (d + 6) * EPS  # err / R^2
        shift = (d + 2) / (d + 6) * bound * 4.0 * float(centroid @ centroid)
        members = centroid + rng.uniform(0, 1.5, size=(n, 1)) * math.sqrt(shift) * unit[1:]
        sq_norms = np.einsum("ij,ij->i", members, members)
        _, err_c = real(as_float32(members), sq_norms, float(sq_norms.max()), centroid)
        dist = lambda a, b: float(np.sqrt(np.sum((a - b) ** 2)))  # noqa: E731
        tau0 = min(max(dist(y, x), dist(x, centroid)) - dist(y, centroid) for y in members)
        for sign in (1.0, -1.0):
            def stand_in(points32, sq_norms, max_sq_norm, q, sign=sign, members=members):
                _, err = real(points32, sq_norms, max_sq_norm, q)
                diff = members - q
                toward = sign if np.array_equal(q, centroid) else -sign
                shifted = np.einsum("ij,ij->i", diff, diff) + toward * (d + 2) / (d + 6) * err
                return shifted, err

            monkeypatch.setattr(decision, "sq_dists", stand_in)
            for t in np.linspace(-1.0, 1.0, 41):
                tau = tau0 + t * math.sqrt(err_c)
                want = full_matrix_accepts(members, centroid, x, tau)
                if accepts(members, centroid, x, tau) != want:
                    mismatches.append((members.tolist(), centroid.tolist(), x.tolist(), tau))
    assert mismatches == []


def old_replay(known, ref, params, dp, ids, stream_z):
    """Route the stream with the full-scan formulas on plain copies of the state."""
    members = {c.id: c.points.copy() for c in known.clusters}
    member_ids = {c.id: list(c.labels) for c in known.clusters}
    centroids = {c.id: c.centroid.copy() for c in known.clusters}
    ref_points, ref_labels = ref.points.copy(), list(ref.labels)
    routes = []
    for sid, x in zip(ids, stream_z):
        label, _, _ = full_sort_classify(ref_points, ref_labels, params.k, params.weighting, x)
        if full_matrix_accepts(members[label], centroids[label], x, dp.tau):
            if dp.grow_members:
                members[label] = np.vstack([members[label], x])
                member_ids[label].append(sid)
                if dp.update_centroids:
                    c = centroids[label]
                    centroids[label] = c + (x - c) / len(members[label])
            if dp.grow_reference:
                ref_points = np.vstack([ref_points, x])
                ref_labels.append(label)
            routes.append((Route.KNOWN, label))
        else:
            routes.append((Route.NEW, label))
    return routes, members, member_ids, centroids, ref_points, ref_labels


# How much of the small fixture's stream each tau accepts, in every growth mode
REPLAY_TAUS = {-5.0: "none", -0.5: "some", 0.0: "some", 5.0: "all"}


@pytest.mark.parametrize(
    "grow_reference,grow_members,update_centroids",
    list(itertools.product([True, False], repeat=3)),
)
def test_routing_replay_matches_full_scan(small_data, grow_reference, grow_members,
                                          update_centroids):
    corpus, stream = small_data
    config = PipelineConfig(n_features=10, corpus_epochs=2, seed=5)
    proj = fit_projection(corpus, stream, config.n_features)
    start = build_known_model(proj.corpus_ids, proj.corpus_z, config, seed=config.seed)
    ids, z_stream = stream.ids, proj.stream_z
    n = len(ids)
    for tau, share in REPLAY_TAUS.items():
        known, ref = copy.deepcopy(start)
        dp = DecisionParams(tau=tau, grow_reference=grow_reference, grow_members=grow_members,
                            update_centroids=update_centroids)
        want = old_replay(known, ref, config.wknn, dp, ids, z_stream)

        routes = []
        for sid, x in zip(ids, z_stream):
            out = route_sample(known, ref, config.wknn, dp, x, sid)
            routes.append((out.route, out.cluster_id))
        want_routes, members, member_ids, centroids, ref_points, ref_labels = want
        assert routes == want_routes
        accepted = sum(r is Route.KNOWN for r, _ in routes)
        assert share == ("none" if accepted == 0 else "all" if accepted == n else "some")
        for c in known.clusters:
            np.testing.assert_array_equal(c.points, members[c.id])
            assert c.labels == member_ids[c.id]
            np.testing.assert_array_equal(c.centroid, centroids[c.id])
        np.testing.assert_array_equal(ref.points, ref_points)
        assert ref.labels == ref_labels

