import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famstream.data import DimensionMismatchError
from famstream.online import (
    BSASState,
    OKMState,
    SOMState,
    StreamingClusterer,
    bsas_init,
    bsas_update,
    final_assign,
    okm_init,
    okm_update,
    som_init,
    som_update,
)


# --- sequential k-means ---------------------------------------------------

def test_okm_init():
    state = okm_init(2, np.array([[0.0, 0.0], [10.0, 0.0]]))
    np.testing.assert_array_equal(state.counts, [0, 0])
    np.testing.assert_array_equal(state.centroids[1], [10.0, 0.0])
    single = okm_init(1, np.array([[1.0, 2.0]]))
    assert single.k == 1


def test_okm_init_rejects_duplicates():
    with pytest.raises(ValueError):
        okm_init(2, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_okm_first_assignment_is_exact_copy():
    state = okm_init(2, np.array([[0.1, 0.7], [10.0, 0.0]]))
    x = np.array([0.3, 0.9])
    assert okm_update(state, x) == 0
    assert state.counts[0] == 1
    np.testing.assert_array_equal(state.centroids[0], x)  # bit-exact


def test_okm_hand_trace():
    state = okm_init(2, np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert okm_update(state, np.array([1.0, 0.0])) == 0
    assert okm_update(state, np.array([3.0, 0.0])) == 0
    np.testing.assert_array_equal(state.centroids[0], [2.0, 0.0])
    assert state.counts[0] == 2 and state.counts[1] == 0


def test_okm_tie_goes_to_lowest_index():
    state = okm_init(2, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert okm_update(state, np.array([1.0, 0.0])) == 0


def test_okm_dimension_mismatch():
    state = okm_init(1, np.array([[0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        okm_update(state, np.array([1.0]))


def test_okm_counts_and_running_mean_replay():
    rng = np.random.default_rng(0)
    warmup = rng.normal(size=(3, 4))
    state = okm_init(3, warmup)
    stream = rng.normal(size=(200, 4))
    assigned = [okm_update(state, x) for x in stream]
    assert int(state.counts.sum()) == 200
    # replay oracle: recompute each centroid's running mean independently
    replay = {i: warmup[i].copy() for i in range(3)}
    counts = {i: 0 for i in range(3)}
    for x, i in zip(stream, assigned):
        counts[i] += 1
        if counts[i] == 1:
            replay[i] = x.copy()
        else:
            replay[i] = replay[i] + (x - replay[i]) / counts[i]
    for i in range(3):
        np.testing.assert_array_equal(state.centroids[i], replay[i])


# --- self-organizing map --------------------------------------------------

def test_som_init_deterministic_and_defaults():
    a = som_init(4, 3, seed=5)
    b = som_init(4, 3, seed=5)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.sigma0 == 2.0  # n_units / 2
    assert np.all(np.abs(a.weights) <= 0.1)
    assert som_init(1, 2, seed=0).n_units == 1


def test_som_init_validation():
    with pytest.raises(ValueError):
        som_init(0, 2)
    with pytest.raises(ValueError):
        som_init(2, 2, alpha0=1.5)
    with pytest.raises(ValueError):
        som_init(2, 2, alpha_mode="bogus")


def test_som_single_unit_moves_by_alpha():
    state = som_init(1, 2, seed=1, alpha0=0.5, lambda_alpha=100.0)
    w0 = state.weights[0].copy()
    x = np.array([2.0, -1.0])
    assert som_update(state, x) == 0
    np.testing.assert_allclose(state.weights[0], w0 + 0.5 * (x - w0), atol=1e-15)
    assert state.t == 1


def test_som_input_equal_to_winner_weight_is_noop_for_winner():
    state = som_init(3, 2, seed=2)
    x = state.weights[1].copy()
    c = som_update(state, x)
    assert c == 1
    np.testing.assert_array_equal(state.weights[1], x)


def test_som_neighborhood_pulls_all_units():
    state = som_init(3, 1, seed=3, sigma0=1.0, lambda_sigma=1e9, lambda_alpha=1e9)
    before = state.weights.copy()
    x = np.array([5.0])
    c = som_update(state, x)
    moved = state.weights - before
    # every unit moves toward x, the winner most
    assert np.all(moved * (x - before) > 0)
    assert abs(moved[c]).max() == abs(moved).max()


def test_som_schedules_decay():
    state = som_init(4, 2, seed=4, alpha0=0.5, lambda_alpha=10.0, lambda_sigma=10.0)
    a0, s0 = state.alpha(), state.sigma()
    for _ in range(10):
        som_update(state, np.array([1.0, 1.0]))
    assert state.alpha() < a0 and state.sigma() < s0
    assert 0.0 < state.alpha() <= 0.5


def test_som_okm_correspondence():
    """Indicator kernel + win-count learning rate replicates sequential
    k-means centroid trajectories (zero-radius equivalence)."""
    rng = np.random.default_rng(42)
    for trial in range(5):
        warmup = rng.normal(size=(4, 6)) * 3.0
        stream = rng.normal(size=(100, 6)) * 3.0
        okm = okm_init(4, warmup)
        som = som_init(4, 6, seed=trial, sigma0=0.0, alpha_mode="win_count")
        som.weights = warmup.copy()
        for x in stream:
            i = okm_update(okm, x)
            c = som_update(som, x)
            assert i == c
        assert np.max(np.abs(okm.centroids - som.weights)) <= 1e-12


def reference_som_update(state: SOMState, x) -> int:
    """The step as first written: the lattice kernel and x - w recomputed per call."""
    diff = state.weights - x
    c = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    state.counts[c] += 1
    a = 1.0 / state.counts[c] if state.alpha_mode == "win_count" else state.alpha()
    s = state.sigma()
    if s == 0.0:
        state.weights[c] += a * (x - state.weights[c])
    else:
        d_grid = np.abs(state.grid_positions - state.grid_positions[c])
        h = np.exp(-(d_grid ** 2) / (2.0 * s * s))
        state.weights += (a * h)[:, None] * (x - state.weights)
    state.t += 1
    return c


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_units=st.integers(1, 7),
    dim=st.integers(1, 6),
    sigma0=st.sampled_from([0.0, 0.3, 1.0, None]),
    alpha_mode=st.sampled_from(["exponential", "win_count"]),
    steps=st.integers(1, 30),
)
def test_som_update_equals_reference_bit_for_bit(seed, n_units, dim, sigma0, alpha_mode, steps):
    rng = np.random.default_rng(seed)
    state = som_init(n_units, dim, seed=rng, alpha0=float(rng.uniform(0.01, 1.0)),
                     lambda_alpha=float(rng.uniform(1, 100)), sigma0=sigma0,
                     lambda_sigma=float(rng.uniform(1, 100)), alpha_mode=alpha_mode)
    state.weights = rng.normal(size=(n_units, dim)) * 10.0 ** rng.uniform(-3, 3)
    if n_units > 1 and rng.random() < 0.5:
        state.weights[-1] = state.weights[0]  # two units tie for every x
    state.t = int(rng.integers(0, 50))
    state.counts = rng.integers(0, 5, size=n_units)
    ref = copy.deepcopy(state)
    # a loaded state recomputes the lattice term, which is not saved
    loaded = SOMState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert "neg_sq_lattice" not in state.to_dict()
    # the last x sits on a unit: its winning distance is exactly 0
    xs = np.concatenate([rng.normal(size=(steps, dim)), state.weights[:1]])
    for x in xs:
        c = reference_som_update(ref, x)
        assert som_update(state, x) == c
        assert som_update(loaded, x) == c
        for got in (state, loaded):
            assert got.weights.tobytes() == ref.weights.tobytes()
            assert got.counts.tolist() == ref.counts.tolist()
            assert got.t == ref.t


# --- BSAS -------------------------------------------------------------------

def test_bsas_hand_trace():
    state = bsas_init(theta=2.0, q=2)
    assert bsas_update(state, np.array([0.0, 0.0])) == (0, True)
    assert bsas_update(state, np.array([1.0, 0.0])) == (0, False)
    np.testing.assert_array_equal(state.centroids[0], [0.5, 0.0])
    assert state.counts[0] == 2
    assert bsas_update(state, np.array([5.0, 0.0])) == (1, True)
    np.testing.assert_array_equal(state.centroids[1], [5.0, 0.0])
    assert state.m == 2


def test_bsas_infinite_theta_single_cluster():
    state = bsas_init(theta=1e18, q=5)
    rng = np.random.default_rng(1)
    for x in rng.normal(size=(50, 3)) * 100:
        idx, created = bsas_update(state, x)
        assert idx == 0
    assert state.m == 1 and state.counts[0] == 50


def test_bsas_at_capacity_joins_nearest():
    state = bsas_init(theta=1.0, q=1)
    bsas_update(state, np.array([0.0, 0.0]))
    idx, created = bsas_update(state, np.array([100.0, 0.0]))
    assert (idx, created) == (0, False)
    np.testing.assert_array_equal(state.centroids[0], [50.0, 0.0])


def test_bsas_cluster_count_monotone_and_capped():
    rng = np.random.default_rng(2)
    state = bsas_init(theta=0.5, q=4)
    last_m = 0
    for x in rng.normal(size=(200, 2)) * 10:
        bsas_update(state, x)
        assert state.m >= last_m
        last_m = state.m
        assert state.m <= 4
    assert state.m == 4  # theta tiny relative to spread, cap must bind
    # centroids stay running means of what joined them
    assert int(state.counts.sum()) == 200


def test_bsas_init_validation():
    with pytest.raises(ValueError):
        bsas_init(theta=0.0, q=2)
    with pytest.raises(ValueError):
        bsas_init(theta=1.0, q=0)


# --- final assignment and serialization -------------------------------------

def test_final_assign_examples():
    state = okm_init(2, np.array([[0.0, 0.0], [10.0, 0.0]]))
    out = final_assign(state, np.array([[10.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(out, [1, 0])
    assert final_assign(state, np.empty((0, 2))).size == 0


def test_final_assign_agrees_with_last_okm_update():
    # three points; the final one lands on a centroid that no later update
    # moves, so streaming assignment and final assignment coincide
    state = okm_init(2, np.array([[0.0, 0.0], [10.0, 0.0]]))
    stream = [np.array([1.0, 0.0]), np.array([9.0, 0.0]), np.array([2.0, 0.0])]
    last = [okm_update(state, x) for x in stream][-1]
    assert final_assign(state, stream[-1][None, :])[0] == last


def test_final_assign_on_som_and_bsas():
    som = som_init(3, 2, seed=0)
    x = som.weights[2].copy()
    assert final_assign(som, x[None, :])[0] == 2
    bsas = bsas_init(1.0, 3)
    bsas_update(bsas, np.array([0.0, 0.0]))
    bsas_update(bsas, np.array([5.0, 5.0]))
    np.testing.assert_array_equal(
        final_assign(bsas, np.array([[0.1, 0.0], [4.9, 5.0]])), [0, 1]
    )


def test_state_json_round_trips():
    okm = okm_init(2, np.array([[0.0, 1.0], [2.0, 3.0]]))
    okm_update(okm, np.array([0.5, 1.5]))
    som = som_init(3, 2, seed=7)
    som_update(som, np.array([1.0, 1.0]))
    bsas = bsas_init(2.0, 3)
    bsas_update(bsas, np.array([1.0, 1.0]))
    for state, cls in ((okm, OKMState), (som, SOMState), (bsas, BSASState)):
        back = cls.from_dict(json.loads(json.dumps(state.to_dict())))
        assert isinstance(back, cls)
        assert back.to_dict() == state.to_dict()  # every array entry, exactly


# --- streaming front end ------------------------------------------------------

def test_streaming_okm_warmup_with_duplicates():
    sc = StreamingClusterer("okm", 2, dim=2)
    a = np.array([1.0, 1.0])
    b = np.array([5.0, 5.0])
    assert sc.push(a) is None       # buffering: one distinct point so far
    assert sc.push(a) is None       # duplicate does not complete warm-up
    idx = sc.push(b)                # second distinct point: replay happens
    assert idx is not None
    state = sc.finalize()
    assert isinstance(state, OKMState)
    assert int(state.counts.sum()) == 3          # all three pushes replayed
    assert sc.emitted == [0, 0, 1]
    np.testing.assert_array_equal(state.centroids[0], a)


def test_streaming_okm_warmup_duplicate_heavy_stream():
    # 3 distinct vectors repeated 400 times, the 4th distinct one at index 1200
    rng = np.random.default_rng(8)
    distinct = rng.normal(size=(4, 3))
    stream = [distinct[i % 3] for i in range(1200)] + [distinct[3], distinct[1], distinct[0]]
    sc = StreamingClusterer("okm", 4, dim=3)
    emitted = [sc.push(x) for x in stream]
    assert emitted[:1200] == [None] * 1200
    assert sc.emitted[:1201] == [0, 1, 2] * 400 + [3]

    state = okm_init(4, distinct)
    want = [okm_update(state, x) for x in stream]
    assert sc.emitted == want
    np.testing.assert_array_equal(sc.finalize().centroids, state.centroids)


def test_streaming_okm_short_stream_falls_back():
    sc = StreamingClusterer("okm", 5, dim=1)
    sc.push(np.array([0.0]))
    sc.push(np.array([1.0]))
    state = sc.finalize()
    assert state.k == 2  # only two distinct vectors ever arrived
    assert len(sc.emitted) == 2


def test_streaming_bsas_theta_heuristic():
    rng = np.random.default_rng(3)
    sc = StreamingClusterer("bsas", 3, dim=2)
    pts = rng.normal(size=(10, 2))
    for p in pts:
        assert sc.push(p) is None  # below the warm-up size, still buffering
    state = sc.finalize()
    assert isinstance(state, BSASState)
    from scipy.spatial.distance import pdist

    assert abs(state.theta - 0.5 * pdist(pts).mean()) <= 1e-12
    assert len(sc.emitted) == 10


def test_streaming_som_needs_no_warmup():
    sc = StreamingClusterer("som", 2, dim=2, seed=1, expected_stream_length=10)
    assert sc.push(np.array([0.0, 0.0])) is not None
    assert isinstance(sc.finalize(), SOMState)


def test_streaming_empty_stream():
    sc = StreamingClusterer("okm", 3, dim=2)
    assert sc.finalize() is None
    assert sc.emitted == []


def test_streaming_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        StreamingClusterer("kmeanz", 2, dim=2)
