"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The end-to-end criteria use the session-scoped synthetic benchmark fixture
(4 corpus families x 1000 points in 100 raw dims, 3000-sample stream with 3
emerging families, PCA to 40 dims, tau = -2, k = 3 WKNN defaults).
"""

import filecmp
import os
import time

import numpy as np
import pytest

from famstream.batch import ClustererSpec
from famstream.cli import main
from famstream.data import save_dataset
from famstream.decision import accepts
from famstream.metrics import mean_silhouette, purity
from famstream.online import bsas_init, bsas_update, okm_init, okm_update, som_init, som_update
from famstream.pipeline import (
    PipelineConfig,
    run_grid,
    run_pipeline,
    run_reference_baseline,
)
from famstream.preprocess import apply_scaler, fit_pca, fit_scaler, select_feature_count, transform_pca
from famstream.wknn import ReferenceSet, WKNNParams, classify

from test_metrics import naive_silhouette
from test_wknn import brute_force_classify


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        points = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0)
        labels = [int(c) for c in rng.integers(0, k, size=n)]
        labels[:k] = list(range(k))  # ensure every cluster non-empty
        diff = abs(mean_silhouette(points, [labels])[0] - naive_silhouette(points, labels))
        worst = max(worst, diff)
    assert worst <= 1e-9

    fixtures = [
        ({"a": 1, "b": 1, "c": 1, "d": 2, "e": 2},
         {"a": "A", "b": "A", "c": "B", "d": "B", "e": "B"}, 4 / 5),
        ({"a": 0, "b": 0, "c": 1}, {"a": "x", "b": "x", "c": "y"}, 1.0),
        ({"a": 0, "b": 0}, {"a": "x", "b": "y"}, 1 / 2),
        ({f"s{i}": 0 for i in range(5)},
         {"s0": "A", "s1": "A", "s2": "B", "s3": "B", "s4": "C"}, 2 / 5),
        ({"a": 0, "b": 0, "c": 0, "d": 1, "e": 1},
         {"a": "A", "b": "B", "c": "C", "d": "A", "e": "A"}, 3 / 5),
        ({"a": 0, "b": 1}, {"a": "A", "b": "B"}, 1.0),
        ({"a": 0, "b": 0, "c": 0, "d": 0, "e": 1, "f": 1, "g": 1},
         {"a": "A", "b": "A", "c": "A", "d": "B", "e": "B", "f": "B", "g": "A"}, 5 / 7),
        ({f"s{i}": 0 for i in range(5)},
         {"s0": "X", "s1": "Y", "s2": "X", "s3": "Y", "s4": "X"}, 3 / 5),
        ({"a": 0, "b": 0, "c": 1, "d": 1, "e": 1, "f": 2, "g": 2, "h": 2, "i": 2},
         {"a": "A", "b": "A", "c": "B", "d": "A", "e": "B",
          "f": "C", "g": "C", "h": "C", "i": "A"}, 7 / 9),
        ({"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "f": 2},
         {"a": "A", "b": "B", "c": "A", "d": "B", "e": "A", "f": "B"}, 1 / 2),
    ]
    assert len(fixtures) == 10
    for assignments, labels, expected in fixtures:
        assert purity(assignments, labels).purity == expected

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("1 metric oracle equivalence",
            f"50 silhouette instances worst diff {worst:.2e}, 10 purity fixtures exact, "
            f"{elapsed:.1f}s")


def test_criterion_2_algorithm_traces():
    start = time.perf_counter()
    # hand-derived sequential k-means trace
    okm = okm_init(2, np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert okm_update(okm, np.array([1.0, 0.0])) == 0
    assert okm_update(okm, np.array([3.0, 0.0])) == 0
    np.testing.assert_array_equal(okm.centroids[0], [2.0, 0.0])
    assert okm.counts[0] == 2

    # hand-derived BSAS trace
    bsas = bsas_init(theta=2.0, q=2)
    assert bsas_update(bsas, np.array([0.0, 0.0])) == (0, True)
    assert bsas_update(bsas, np.array([1.0, 0.0])) == (0, False)
    np.testing.assert_array_equal(bsas.centroids[0], [0.5, 0.0])
    assert bsas.counts[0] == 2
    assert bsas_update(bsas, np.array([5.0, 0.0])) == (1, True)
    np.testing.assert_array_equal(bsas.centroids[1], [5.0, 0.0])

    # zero-radius SOM with win-count learning rate == sequential k-means
    rng = np.random.default_rng(2002)
    worst = 0.0
    for trial in range(20):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        warmup = rng.normal(size=(k, d)) * 5.0
        okm_state = okm_init(k, warmup)
        som_state = som_init(k, d, seed=trial, sigma0=0.0, alpha_mode="win_count")
        som_state.weights = warmup.copy()
        for x in rng.normal(size=(100, d)) * 5.0:
            assert okm_update(okm_state, x) == som_update(som_state, x)
        worst = max(worst, float(np.max(np.abs(okm_state.centroids - som_state.weights))))
    assert worst <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("2 algorithm traces",
            f"hand traces exact, SOM/OKM max trajectory diff {worst:.2e} over 20 "
            f"100-sample streams, {elapsed:.1f}s")


def test_criterion_3_wknn_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    for trial in range(1000):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 11) + 1))
        weighting = "distance" if trial % 2 == 0 else "uniform"
        points = rng.normal(size=(n, d))
        labels = [int(l) for l in rng.integers(0, 5, size=n)]
        ref = ReferenceSet(points=points, labels=labels)
        x = rng.normal(size=d)
        got, _ = classify(ref, WKNNParams(k=k, weighting=weighting), x)
        assert got == brute_force_classify(points, labels, k, weighting, x)

    # constructed equidistant fixtures exercise the d_k == d_1 branch
    ref = ReferenceSet(points=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                       labels=[0, 1, 1, 0])
    label, _ = classify(ref, WKNNParams(k=3, weighting="distance"), np.array([0.0, 0.0]))
    assert label == 1  # weights all 1; labels (0,1,1) -> majority 1
    label, _ = classify(ref, WKNNParams(k=4, weighting="distance"), np.array([0.0, 0.0]))
    assert label == 0  # 2 vs 2 tie -> nearest neighbor's label (insertion order)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("3 WKNN equivalence",
            f"1000 random queries exact, equidistant branch exercised, {elapsed:.1f}s")


def test_criterion_4_decision_rule_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(4004)

    for _ in range(10_000):
        members = rng.normal(size=(int(rng.integers(1, 8)), 3)) * 4.0
        centroid = members.mean(axis=0)
        x = rng.normal(size=3) * 4.0
        t1, t2 = sorted(rng.normal(size=2) * 3.0)
        if accepts(members, centroid, x, t1):
            assert accepts(members, centroid, x, t2)

    for _ in range(10_000):
        members = rng.normal(size=(int(rng.integers(2, 8)), 3)) * 4.0
        centroid = members.mean(axis=0)
        y = members[int(rng.integers(0, len(members)))]
        assert accepts(members, centroid, y, float(rng.uniform(0.0, 3.0)))

    for _ in range(10_000):
        members = rng.normal(size=(int(rng.integers(1, 8)), 3)) * 4.0
        centroid = members.mean(axis=0)
        tau = -float(rng.uniform(0.3, 3.0))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        x = centroid + direction * float(rng.uniform(0.0, 1.0)) * (-tau) * 0.999
        assert not accepts(members, centroid, x, tau)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("4 decision-rule properties",
            f"monotonicity, member acceptance, inner-ball rejection on 10k cases each, "
            f"{elapsed:.1f}s")


def test_criterion_5_synthetic_end_to_end(benchmark_data):
    start = time.perf_counter()
    corpus, stream = benchmark_data
    assert len(corpus) == 4000 and len(stream) == 3000 and corpus.dim == 100
    config = PipelineConfig(n_features=40, corpus_clusters=4, seed=77, repeats=1)
    assert config.wknn.k == 3 and config.wknn.weighting == "distance"
    assert config.decision.tau == -2.0
    grid = run_grid(config, range(4, 11), ["okm", "som", "bsas"], data=(corpus, stream))
    floors = {"okm": 0.90, "som": 0.85, "bsas": 0.85}
    worst = {}
    for cell in grid.cells:
        assert cell.purity is not None
        floor = floors[cell.algorithm]
        assert cell.purity >= floor, (
            f"{cell.algorithm} at {cell.clusters} clusters: purity {cell.purity:.4f} "
            f"below floor {floor}"
        )
        worst[cell.algorithm] = min(worst.get(cell.algorithm, 1.0), cell.purity)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("5 synthetic end-to-end",
            "worst purity " +
            ", ".join(f"{a} {p:.3f} (floor {floors[a]})" for a, p in sorted(worst.items())) +
            f", {elapsed:.1f}s")


def test_criterion_6_baseline_comparison(benchmark_data):
    corpus, stream = benchmark_data
    repeats = 20
    config = PipelineConfig(
        n_features=40, corpus_clusters=4, online_clusters=7, seed=600,
        repeats=repeats, compute_silhouette=False, compute_known_metrics=False,
    )
    grid = run_grid(config, [7], ["okm", "som", "bsas"], data=(corpus, stream))
    proposed = {
        algo: [c.purity for c in sorted(
            (c for c in grid.cells if c.algorithm == algo), key=lambda c: c.repeat)]
        for algo in ("okm", "som", "bsas")
    }
    base_grid = run_reference_baseline(config, [7], ["okm", "som", "bsas"],
                                       data=(corpus, stream))
    summary = []
    for algo in ("okm", "som", "bsas"):
        baseline = [c.purity for c in base_grid.cells if c.algorithm == algo]
        wins = sum(p > b for p, b in zip(proposed[algo], baseline))
        assert wins >= 18, f"{algo}: proposed beat baseline in only {wins}/{repeats}"
        summary.append(f"{algo} {wins}/{repeats}")
    _report("6 baseline comparison", "paired wins " + ", ".join(summary))


def test_criterion_7_grid_determinism(tmp_path, small_data):
    corpus, stream = small_data
    corpus_path = tmp_path / "corpus.csv"
    stream_path = tmp_path / "stream.csv"
    save_dataset(corpus, corpus_path)
    save_dataset(stream, stream_path)
    args = ["grid", "--corpus", str(corpus_path), "--stream", str(stream_path),
            "--n-features", "10", "--corpus-epochs", "3", "--repeats", "2",
            "--seed", "99", "--cluster-counts", "4-5", "--algorithms", "okm,som,bsas"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, files_a, shallow=False)
    assert not mismatch and not errors
    _report("7 grid determinism",
            f"two runs byte-identical across {len(match)} output files")


def test_criterion_8_pca_validity(benchmark_data, small_data):
    corpus, _ = benchmark_data
    X = corpus.features
    scaled = apply_scaler(fit_scaler(X), X)
    model = fit_pca(scaled, 40)
    gram = model.components @ model.components.T
    ortho_err = float(np.max(np.abs(gram - np.eye(40))))
    assert ortho_err <= 1e-8
    Z = transform_pca(model, scaled)
    emp = Z.var(axis=0, ddof=1)
    np.testing.assert_allclose(emp, model.variances, rtol=1e-8, atol=1e-10)

    small_corpus, _ = small_data
    small_X = small_corpus.features
    small_scaled = apply_scaler(fit_scaler(small_X), small_X)
    specs = [ClustererSpec("kmeans4", "kmeans", {"k": 4}),
             ClustererSpec("som4", "som", {"k_units": 4, "epochs": 3})]
    runs = [select_feature_count(small_scaled, [10, 20], specs, seed=8) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert [(c.n_features, c.clusterer, c.mean_silhouette) for c in runs[0][1]] == \
           [(c.n_features, c.clusterer, c.mean_silhouette) for c in runs[1][1]]
    _report("8 PCA validity",
            f"orthonormality err {ortho_err:.2e}, variances match empirical, "
            f"selection table reproducible")


EMBER_CORPUS = os.environ.get("FAMSTREAM_EMBER_CORPUS")
EMBER_STREAM = os.environ.get("FAMSTREAM_EMBER_STREAM")


@pytest.mark.skipif(
    not (EMBER_CORPUS and EMBER_STREAM),
    reason="optional: set FAMSTREAM_EMBER_CORPUS and FAMSTREAM_EMBER_STREAM to "
           "vectorized 7-family EMBER CSV/JSONL exports",
)
def test_criterion_9_ember_reproduction():
    config = PipelineConfig(
        corpus_path=EMBER_CORPUS, stream_path=EMBER_STREAM,
        n_features=40, corpus_clusters=4, online_algorithm="okm",
        online_clusters=10, repeats=3, seed=0,
        compute_silhouette=False, compute_known_metrics=False,
    )
    report = run_pipeline(config)
    purity_new = report.aggregates["purity_new"]["mean"]
    new_fraction = report.aggregates["new_route_fraction"]["mean"]
    assert abs(purity_new - 0.9334) <= 0.05
    assert abs(new_fraction - 0.112) <= 0.03
    _report("9 EMBER reproduction",
            f"purity_new {purity_new:.4f}, new fraction {new_fraction:.4f}")
