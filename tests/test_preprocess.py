import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famstream.batch import ClustererSpec, run_batch_clusterer
from famstream.data import DimensionMismatchError
from famstream.metrics import mean_silhouette
from famstream.preprocess import (
    PCAModel,
    ScalerModel,
    apply_scaler,
    fit_pca,
    fit_scaler,
    select_feature_count,
    transform_pca,
)

from conftest import blobs
from test_metrics import naive_silhouette


def jacobi_eigh(a, sweeps=100, tol=1e-14):
    """Independent symmetric eigensolver: cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors as columns), unsorted.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(sum(a[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def test_fit_scaler_three_point_column():
    X = np.array([[1.0], [2.0], [3.0]])
    model = fit_scaler(X)
    assert model.means[0] == 2.0
    assert abs(model.stds[0] - math.sqrt(2.0 / 3.0)) <= 1e-15


def test_fit_scaler_constant_column_guard():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    model = fit_scaler(X)
    assert model.means[0] == 5.0 and model.stds[0] == 1.0
    out = apply_scaler(model, np.array([7.0, 2.0]))
    assert out[0] == 2.0  # (7 - 5) / 1


def test_fit_scaler_single_sample():
    model = fit_scaler(np.array([[3.0, -1.0]]))
    np.testing.assert_array_equal(model.stds, [1.0, 1.0])


def test_fit_scaler_empty_corpus():
    with pytest.raises(ValueError):
        fit_scaler(np.empty((0, 3)))


def test_apply_scaler_examples():
    X = np.array([[1.0], [2.0], [3.0]])
    model = fit_scaler(X)
    assert apply_scaler(model, model.means.copy())[0] == 0.0
    got = apply_scaler(model, np.array([3.0]))[0]
    assert abs(got - 1.0 / math.sqrt(2.0 / 3.0)) <= 1e-12  # ~1.2247
    with pytest.raises(DimensionMismatchError):
        apply_scaler(model, np.zeros(2))


def test_scaled_corpus_standardized():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 6)) * rng.uniform(0.5, 4.0, size=6) + rng.normal(size=6)
    X[:, 3] = 2.5  # constant feature
    Z = apply_scaler(fit_scaler(X), X)
    means = Z.mean(axis=0)
    stds = Z.std(axis=0)
    assert np.all(np.abs(means) <= 1e-10)
    nonconstant = [i for i in range(6) if i != 3]
    assert np.all(np.abs(stds[nonconstant] - 1.0) <= 1e-10)


def test_fit_pca_axis_aligned():
    X = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    model = fit_pca(X, 2)
    np.testing.assert_allclose(model.components[0], [1.0, 0.0], atol=1e-12)
    assert model.variances[1] == 0.0


def test_fit_pca_diagonal_line():
    X = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
    model = fit_pca(X, 1)
    np.testing.assert_allclose(model.components[0], [1 / math.sqrt(2)] * 2, atol=1e-12)
    # 2x2 eigendecomposition by hand: cov = (10/3) * ones(2,2), top eigenvalue 20/3
    assert abs(model.variances[0] - 20.0 / 3.0) <= 1e-12


def test_fit_pca_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
    model = fit_pca(X, 5)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    evals, evecs = jacobi_eigh(cov)
    order = np.argsort(-evals)
    evals, evecs = evals[order], evecs[:, order]
    np.testing.assert_allclose(model.variances, evals, rtol=1e-8, atol=1e-10)
    for i in range(5):
        v = evecs[:, i]
        j = int(np.argmax(np.abs(v)))
        if v[j] < 0:
            v = -v
        np.testing.assert_allclose(model.components[i], v, atol=1e-8)


def test_fit_pca_range_errors():
    X = np.zeros((3, 4))
    with pytest.raises(ValueError):
        fit_pca(X, 0)
    with pytest.raises(ValueError):
        fit_pca(X, 4)  # n_components > corpus size


def test_transform_pca_examples():
    X = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    model = fit_pca(X, 1)
    np.testing.assert_allclose(transform_pca(model, model.mean.copy()), [0.0], atol=1e-15)
    assert abs(transform_pca(model, np.array([3.0, 0.0]))[0] - 3.0) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        transform_pca(model, np.zeros(3))


def test_transform_pca_residual_orthogonal_to_components():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 6))
    model = fit_pca(X, 3)
    x = rng.normal(size=6)
    out = transform_pca(model, x)
    reconstruction = model.mean + out @ model.components
    residual = x - reconstruction
    np.testing.assert_allclose(model.components @ residual, np.zeros(3), atol=1e-10)


@st.composite
def projection_cases(draw):
    """A random PCA model (orthonormal rows) and a C- or Fortran-ordered
    matrix whose entries span magnitudes 1e-150 to 1e150, plus one
    contiguous row block of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 48)), draw(st.integers(1, 64))
    k = draw(st.integers(1, d))
    lo, hi = sorted(draw(st.lists(st.integers(-150, 150), min_size=2, max_size=2)))
    X = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(lo, hi, size=(n, d))
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    mean = rng.normal(size=d) * 10.0 ** rng.uniform(lo, hi, size=d)
    model = PCAModel(mean=mean, components=q[:, :k].T.copy(), variances=np.ones(k),
                     n_components=k)
    a = draw(st.integers(0, n - 1))
    return model, X, a, draw(st.integers(a + 1, n))


@settings(max_examples=200, deadline=None)
@given(case=projection_cases())
def test_transform_pca_rows_do_not_depend_on_their_neighbours(case):
    model, X, a, b = case
    Z = transform_pca(model, X)
    assert transform_pca(model, X[a:b]).tobytes() == Z[a:b].tobytes()
    for i in range(len(X)):
        assert transform_pca(model, X[i]).tobytes() == Z[i].tobytes()
        assert transform_pca(model, X[i : i + 1]).tobytes() == Z[i : i + 1].tobytes()


def test_transform_pca_variances_match_empirical():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 8)) @ rng.normal(size=(8, 8))
    model = fit_pca(X, 8)
    Z = transform_pca(model, X)
    emp = Z.var(axis=0, ddof=1)
    np.testing.assert_allclose(emp, model.variances, rtol=1e-8, atol=1e-10)


def test_pca_recovers_diagonal_covariance_basis():
    # six exact points: cov is diagonal with distinct entries
    X = np.array([
        [3.0, 0.0, 0.0], [-3.0, 0.0, 0.0],
        [0.0, 2.0, 0.0], [0.0, -2.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
    ])
    model = fit_pca(X, 3)
    np.testing.assert_allclose(model.components, np.eye(3), atol=1e-8)


def test_pca_model_json_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 4))
    model = fit_pca(X, 2)
    back = PCAModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(back.components, model.components)
    scaler = fit_scaler(X)
    back_s = ScalerModel.from_dict(scaler.to_dict())
    np.testing.assert_array_equal(back_s.stds, scaler.stds)


def test_select_feature_count_singleton_grid():
    rng = np.random.default_rng(5)
    X, _ = blobs(rng, [(0.0, 0.0, 0.0), (8.0, 8.0, 8.0)], 30)
    spec = ClustererSpec("kmeans2", "kmeans", {"k": 2})
    best, table = select_feature_count(X, [2], [spec], seed=0)
    assert best == (2, "kmeans2")
    assert len(table) == 1 and table[0].mean_silhouette is not None


def test_select_feature_count_table_matches_independent_recompute():
    rng = np.random.default_rng(6)
    centers = [(0, 0, 0, 0), (9, 0, 0, 0), (0, 9, 0, 0), (9, 9, 9, 0)]
    X, _ = blobs(rng, centers, 25)
    scaled = apply_scaler(fit_scaler(X), X)
    specs = [
        ClustererSpec("kmeans4", "kmeans", {"k": 4}),
        ClustererSpec("som4", "som", {"k_units": 4, "epochs": 3}),
        # min_samples 1 leaves no noise; eps 0.8 gives 3 clusters at 2 features
        # and 5 at 3, a singleton among them
        ClustererSpec("dbscan", "dbscan", {"eps": 0.8, "min_samples": 1}),
    ]
    best, table = select_feature_count(scaled, [2, 3], specs, seed=1)

    # independent recompute: same clusterings, naive silhouette oracle
    oracle = {}
    for count in (2, 3):
        model = fit_pca(scaled, count)
        Z = transform_pca(model, scaled)
        for spec in specs:
            labels = run_batch_clusterer(spec, Z, seed=1)
            assert labels.min() >= 0 and labels.max() >= 1
            oracle[(count, spec.name)] = naive_silhouette(Z, labels.tolist())
    for cell in table:
        want = oracle[(cell.n_features, cell.clusterer)]
        assert abs(cell.mean_silhouette - want) <= 1e-9
    assert best == max(oracle, key=lambda key: oracle[key])


def test_select_feature_count_reproducible():
    rng = np.random.default_rng(7)
    X, _ = blobs(rng, [(0, 0), (6, 6)], 20)
    spec = ClustererSpec("kmeans2", "kmeans", {"k": 2})
    one = select_feature_count(X, [1, 2], [spec], seed=3)
    two = select_feature_count(X, [1, 2], [spec], seed=3)
    assert one[0] == two[0]
    assert [(c.n_features, c.clusterer, c.mean_silhouette) for c in one[1]] == [
        (c.n_features, c.clusterer, c.mean_silhouette) for c in two[1]
    ]


def test_select_feature_count_failed_cell_recorded():
    rng = np.random.default_rng(8)
    X, _ = blobs(rng, [(0, 0), (6, 6)], 15)
    bad = ClustererSpec("dbscan-tight", "dbscan", {"eps": 1e-6, "min_samples": 5})
    good = ClustererSpec("kmeans2", "kmeans", {"k": 2})
    best, table = select_feature_count(X, [2], [bad, good], seed=0)
    cells = {c.clusterer: c.mean_silhouette for c in table}
    assert cells["dbscan-tight"] is None
    assert best == (2, "kmeans2")
