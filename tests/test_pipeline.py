import copy
import dataclasses
import gc
import json

import numpy as np
import pytest

from famstream import pipeline
from famstream.cli import main
from famstream.data import Dataset, save_dataset
from famstream.online import StreamingClusterer
from famstream.pipeline import (
    PipelineConfig,
    build_known_model,
    fit_projection,
    repeat_seed,
    run_grid,
    run_pipeline,
    run_reference_baseline,
    run_routing,
    run_tau_sweep,
)
from famstream.preprocess import apply_scaler, transform_pca
from famstream.synthetic import make_family_dataset
from famstream import report as rpt


def small_config(**kw):
    defaults = dict(n_features=10, corpus_clusters=4, corpus_epochs=3,
                    online_clusters=4, repeats=2, seed=21)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_config_round_trip_and_validation():
    cfg = small_config()
    back = PipelineConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"bogus_key": 1})
    with pytest.raises(ValueError):
        PipelineConfig(online_algorithm="kmeanz").validate(require_paths=False)
    with pytest.raises(ValueError):
        PipelineConfig(repeats=0).validate(require_paths=False)
    with pytest.raises(ValueError):
        PipelineConfig().validate()  # no paths


def test_repeat_seed_scheme():
    assert repeat_seed(5, 0) == 5
    assert repeat_seed(5, 3) == 3005


def test_routing_decomposition(small_data):
    corpus, stream = small_data
    cfg = small_config()
    proj = fit_projection(corpus, stream, cfg.n_features)
    routing = run_routing(proj, cfg, seed=1)
    assert routing.proposed.shape == routing.accepted.shape == (len(stream),)
    n_new = int((~routing.accepted).sum())
    assert n_new == len(routing.new) == len(routing.new_ids)
    assert routing.new_ids == [stream.ids[i] for i in routing.new]
    assert routing.new_points.shape == (n_new, cfg.n_features)
    # every accepted sample joined exactly one known cluster
    member_ids = [sid for c in routing.known.clusters for sid in c.labels]
    assert len(member_ids) == len(set(member_ids))
    accepted = [sid for sid, ok in zip(stream.ids, routing.accepted) if ok]
    assert set(accepted) <= set(member_ids)
    assert len(member_ids) == len(corpus) + len(accepted)


def test_reference_labels_name_the_cluster_holding_each_corpus_row(small_data):
    corpus, stream = small_data
    cfg = small_config()
    proj = fit_projection(corpus, stream, cfg.n_features)
    known, ref = build_known_model(corpus.ids, proj.corpus_z, cfg, seed=1)
    holder = {sid: c.id for c in known.clusters for sid in c.labels}
    assert len(holder) == sum(len(c) for c in known.clusters) == len(corpus)
    assert ref.labels == [holder[sid] for sid in corpus.ids]
    assert ref.points.tobytes() == proj.corpus_z.tobytes()


def test_fit_projection_matches_manual(small_data):
    corpus, stream = small_data
    cfg = small_config()
    proj = fit_projection(corpus, stream, cfg.n_features)
    assert proj.corpus_z.shape == (len(corpus), cfg.n_features)
    assert proj.stream_z.shape == (len(stream), cfg.n_features)
    for data, z in ((corpus, proj.corpus_z), (stream, proj.stream_z)):
        for i in (0, len(data) - 1):
            want = transform_pca(proj.pca, apply_scaler(proj.scaler, data.samples[i].features))
            np.testing.assert_array_equal(z[i], want)


def test_run_pipeline_projects_each_sample_once(small_data, monkeypatch):
    corpus, stream = small_data
    real = pipeline.transform_pca

    def spy(model, x):
        if np.ndim(x) == 1:
            calls["single"] += 1
        else:
            calls["matrix"] += 1
            calls["rows"] += len(x)
        return real(model, x)

    monkeypatch.setattr(pipeline, "transform_pca", spy)
    cfg = small_config(repeats=1)
    commands = {
        "run": lambda: run_pipeline(small_config(repeats=3), data=(corpus, stream)),
        "grid": lambda: run_grid(cfg, [4], ["okm"], data=(corpus, stream)),
        "baseline": lambda: run_reference_baseline(cfg, [4], ["okm"], data=(corpus, stream)),
        "sweep-tau": lambda: run_tau_sweep(cfg, [-2.0, 2.0], data=(corpus, stream)),
    }
    for name, command in commands.items():
        calls = {"matrix": 0, "rows": 0, "single": 0}
        command()
        assert calls == {"matrix": 2, "rows": len(corpus) + len(stream), "single": 0}, name


def test_run_pipeline_report_structure(small_data):
    corpus, stream = small_data
    cfg = small_config()
    report = run_pipeline(cfg, data=(corpus, stream))
    assert len(report.repeats) == 2
    for r in report.repeats:
        assert r.known_count + r.new_count == r.stream_size == len(stream)
        assert 0.0 <= r.new_route_fraction <= 1.0
        for stage in ("preprocess", "corpus_clustering", "wknn_total",
                      "online_total", "total"):
            assert r.timings[stage] >= 0.0
        stage_sum = sum(
            r.timings[s] for s in ("preprocess", "corpus_clustering",
                                   "wknn_total", "online_total")
        )
        assert r.timings["total"] >= stage_sum  # stages are strictly sequential
    assert report.aggregates["new_route_fraction"] is not None
    assert report.first_assignments[0] and report.first_models["scaler"]


def test_run_pipeline_deterministic(small_data):
    corpus, stream = small_data
    cfg = small_config(repeats=2)
    a = run_pipeline(cfg, data=(corpus, stream))
    b = run_pipeline(cfg, data=(corpus, stream))
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    (ids_a, *columns_a), (ids_b, *columns_b) = a.first_assignments, b.first_assignments
    assert ids_a == ids_b
    for column_a, column_b in zip(columns_a, columns_b, strict=True):
        np.testing.assert_array_equal(column_a, column_b)


def test_run_pipeline_empty_stream(small_data):
    corpus, stream = small_data
    cfg = small_config(repeats=1)
    empty = stream.take([])
    assert empty.dim == corpus.dim
    report = run_pipeline(cfg, data=(corpus, empty))
    r = report.repeats[0]
    assert r.stream_size == 0 and r.new_count == 0
    assert r.new_route_fraction == 0.0
    assert r.purity_new is None and r.silhouette_new is None
    assert any("new" in s for s in r.skipped)


def test_run_pipeline_without_labels_flags_purity(small_data):
    corpus, stream = small_data
    stripped_corpus = dataclasses.replace(corpus, families=[None] * len(corpus))
    stripped_stream = dataclasses.replace(stream, families=[None] * len(stream))
    cfg = small_config(repeats=1)
    report = run_pipeline(cfg, data=(stripped_corpus, stripped_stream))
    r = report.repeats[0]
    assert r.purity_new is None and r.purity_known is None
    assert r.silhouette_known is not None  # label-free metric still computed
    assert any("labels missing" in s for s in r.skipped)


def test_run_pipeline_does_not_mutate_inputs(small_data):
    corpus, stream = small_data
    before = copy.deepcopy(corpus.samples[0].features)
    run_pipeline(small_config(repeats=1), data=(corpus, stream))
    np.testing.assert_array_equal(corpus.samples[0].features, before)


def test_run_grid_shape_and_shared_routing(small_data):
    corpus, stream = small_data
    cfg = small_config()
    grid = run_grid(cfg, [4, 5], ["okm", "bsas"], data=(corpus, stream))
    assert len(grid.cells) == 2 * 2 * 2
    assert len(grid.summary) == 4
    # routing computed once per repeat: same new-population size in every cell
    for r in (0, 1):
        sizes = {c.n_new for c in grid.cells if c.repeat == r}
        assert len(sizes) == 1
    # seeds follow the documented scheme
    assert {c.seed for c in grid.cells if c.repeat == 1} == {repeat_seed(cfg.seed, 1)}


def test_run_grid_validates_inputs(small_data):
    cfg = small_config(repeats=1)
    with pytest.raises(ValueError):
        run_grid(cfg, [], ["okm"], data=small_data)
    with pytest.raises(ValueError):
        run_grid(cfg, [4], ["bogus"], data=small_data)


def test_cluster_counts_below_one_rejected_before_any_cell(small_data, monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(pipeline, "_cluster_cell", no_cell)
    cfg = small_config(repeats=1)
    for run in (run_grid, run_reference_baseline):
        with pytest.raises(ValueError, match="got 0"):
            run(cfg, [4, 0], ["okm"], data=small_data)


def test_baseline_single_cluster_purity_is_dominant_share(small_data):
    corpus, stream = small_data
    cfg = small_config(repeats=1, compute_silhouette=False)
    baseline = run_reference_baseline(cfg, [1], ["okm"], data=(corpus, stream))
    (cell,) = baseline.cells
    families = [s.family for s in corpus.samples] + [s.family for s in stream.samples]
    dominant = max(families.count(f) for f in set(families))
    assert cell.purity == dominant / len(families)
    assert cell.silhouette is None  # one cluster, and silhouette disabled anyway
    assert cell.n_new == len(families)  # routing bypassed: every sample is clustered


@pytest.mark.parametrize("algorithm", ["okm", "som", "bsas"])
def test_emission_assignments_use_online_ids(small_data, algorithm):
    corpus, stream = small_data
    theta = 4.0 if algorithm == "bsas" else None
    cfg = small_config(repeats=1, online_algorithm=algorithm, bsas_theta=theta)
    report = run_pipeline(cfg, data=(corpus, stream))
    ids, accepted, cluster_ids = report.first_assignments
    assert ids == [s.id for s in stream.samples]
    known_ids = {c["id"] for c in report.first_models["known_clusters"]["clusters"]}
    online_state = report.first_models["online_state"]
    n_online = len(online_state["weights" if algorithm == "som" else "centroids"])
    for ok, cluster_id in zip(accepted, cluster_ids, strict=True):
        if ok:
            assert cluster_id in known_ids
        else:
            assert 0 <= cluster_id < n_online
    # the new rows, in stream order, carry a separate replay's emission ids
    base = repeat_seed(cfg.seed, 0)
    routing = run_routing(fit_projection(corpus, stream, cfg.n_features), cfg, seed=base)
    replay = StreamingClusterer(algorithm, cfg.online_clusters, dim=cfg.n_features, seed=base + 1,
                                expected_stream_length=len(routing.new_points), bsas_theta=theta)
    for row in routing.new_points:
        replay.push(row)
    replay.finalize()
    np.testing.assert_array_equal(accepted, routing.accepted)
    assert cluster_ids[accepted].tolist() == routing.proposed[accepted].tolist()
    assert len(replay.emitted) == len(routing.new_points) > 0
    assert cluster_ids[~accepted].tolist() == replay.emitted


def test_report_writers_golden_headers(tmp_path, small_data):
    corpus, stream = small_data
    cfg = small_config(repeats=1)
    report = run_pipeline(cfg, data=(corpus, stream))
    grid = run_grid(cfg, [4, 5, 6], ["okm", "som", "bsas"], data=(corpus, stream))

    rpt.write_run_outputs(tmp_path / "run", report, emit_timings=True)
    rpt.write_grid_outputs(tmp_path / "grid", grid, emit_timings=True)

    def header(path):
        return path.read_text().splitlines()[0]

    assert header(tmp_path / "run" / "assignments.csv") == "sample_id,route,cluster_id"
    assert header(tmp_path / "grid" / "grid_results.csv") == \
        "algorithm,clusters,repeat,seed,n_new,purity,silhouette"
    assert header(tmp_path / "grid" / "online_metrics.csv") == \
        "algorithm,clusters,purity_mean,purity_std,silhouette_mean,silhouette_std"
    assert header(tmp_path / "grid" / "online_timings.csv") == \
        "algorithm,clusters,repeat,seconds"
    assert header(tmp_path / "run" / "total_timings.csv") == "repeat,total_seconds"
    # fig5 has one row per (algorithm, count) pair
    assert len((tmp_path / "grid" / "online_metrics.csv").read_text().splitlines()) == 1 + 9
    for name in ("report.json", "metrics.json", "timings.json"):
        assert (tmp_path / "run" / name).exists()
    models = tmp_path / "run" / "models"
    assert {p.name for p in models.iterdir()} == {
        "scaler.json", "pca.json", "known_clusters.json", "online_state.json"
    }


def test_plot_data_writers(tmp_path):
    from famstream.decision import TauSweepPoint
    from famstream.preprocess import FeatureSelectionCell

    sweep = [TauSweepPoint(t, f) for t, f in
             [(-5.0, 0.9), (-2.0, 0.4), (0.0, 0.3), (2.0, 0.05), (5.0, 0.0)]]
    rpt.write_tau_sweep(tmp_path / "sweep.csv", sweep)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,new_fraction"
    assert len(lines) == 6  # header + five tau rows

    table = [FeatureSelectionCell(20, "som", 0.5), FeatureSelectionCell(30, "som", None)]
    rpt.write_feature_selection_table(tmp_path / "table.csv", table)
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "n_features,clusterer,mean_silhouette"
    assert lines[2] == "30,som,"  # failed cell serialized as empty


def test_run_outputs_byte_deterministic(tmp_path, small_data):
    corpus, stream = small_data
    cfg = small_config(repeats=1)
    for name in ("a", "b"):
        report = run_pipeline(cfg, data=(corpus, stream))
        rpt.write_run_outputs(tmp_path / name, report)
    for rel in ("report.json", "metrics.json", "assignments.csv",
                "models/scaler.json", "models/known_clusters.json"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert not (tmp_path / "a" / "timings.json").exists()


def test_preprocessing_fit_once_per_call(tmp_path, small_data, monkeypatch):
    corpus, stream = small_data
    calls = {"fit_scaler": 0, "fit_pca": 0}

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))

    def assert_one_fit_each():
        assert calls == {"fit_scaler": 1, "fit_pca": 1}
        calls.update(fit_scaler=0, fit_pca=0)

    run_pipeline(small_config(repeats=3), data=(corpus, stream))
    assert_one_fit_each()
    run_grid(small_config(repeats=2), [4], ["okm", "bsas"], data=(corpus, stream))
    assert_one_fit_each()
    run_reference_baseline(small_config(repeats=2, compute_silhouette=False), [4, 5],
                           ["okm", "som", "bsas"], data=(corpus, stream))
    assert_one_fit_each()
    corpus_path, stream_path = tmp_path / "corpus.csv", tmp_path / "stream.csv"
    save_dataset(corpus, corpus_path)
    save_dataset(stream, stream_path)
    assert main(["sweep-tau", "--corpus", str(corpus_path), "--stream", str(stream_path),
                 "--n-features", "10", "--corpus-epochs", "3", "--taus=-2,2",
                 "-o", str(tmp_path / "sweep")]) == 0
    assert_one_fit_each()


def test_run_reproduces_grid_cells(small_data):
    corpus, stream = small_data
    cfg = small_config(repeats=2)
    grid = run_grid(cfg, [4, 5], ["okm", "bsas"], data=(corpus, stream))
    cells = {(c.algorithm, c.clusters, c.repeat): c for c in grid.cells}
    for algo, count in (("okm", 4), ("bsas", 5)):
        report = run_pipeline(
            small_config(repeats=2, online_algorithm=algo, online_clusters=count),
            data=(corpus, stream),
        )
        for r in report.repeats:
            cell = cells[(algo, count, r.repeat)]
            assert (r.new_count, r.purity_new, r.silhouette_new) == \
                (cell.n_new, cell.purity, cell.silhouette)


@pytest.mark.parametrize("role", ["corpus", "stream"])
def test_non_finite_feature_names_the_sample(small_data, role):
    # The Dataset rejects the row, so no pipeline input can hold a non-finite feature.
    corpus, stream = small_data
    target = corpus if role == "corpus" else stream
    features = target.features.copy()
    features[7, 3] = np.nan
    with pytest.raises(ValueError, match=f"^sample {target.ids[7]!r} has a non-finite feature$"):
        dataclasses.replace(target, features=features)


def test_baseline_cells_follow_grid_failure_policy(small_data, monkeypatch):
    def failing_silhouette(points, labels):
        raise ValueError("silhouette failed")

    monkeypatch.setattr(pipeline, "mean_silhouette", failing_silhouette)
    corpus, stream = small_data
    cfg = small_config(repeats=1)
    baseline = run_reference_baseline(cfg, [4], ["okm", "bsas"], data=(corpus, stream))
    assert [(c.algorithm, c.purity, c.silhouette, c.online_seconds) for c in baseline.cells] \
        == [("okm", None, None, 0.0), ("bsas", None, None, 0.0)]
    assert [c.error for c in baseline.cells] == ["silhouette failed"] * 2
    assert all(row.purity_mean is None for row in baseline.summary)
    with pytest.raises(ValueError, match="silhouette failed"):
        run_pipeline(cfg, data=(corpus, stream))  # a run raises instead


def test_one_silhouette_call_per_scored_population(small_data, monkeypatch):
    calls = []
    real = pipeline.mean_silhouette

    def spy(points, labelings):
        calls.append((len(points), len(labelings)))
        return real(points, labelings)

    monkeypatch.setattr(pipeline, "mean_silhouette", spy)
    corpus, stream = small_data
    cfg = small_config(repeats=2)
    grid = run_grid(cfg, [3, 4], ["okm", "bsas"], data=small_data)
    assert calls == [(grid.cells[0].n_new, 4), (grid.cells[4].n_new, 4)]
    assert all(c.silhouette is not None and c.error is None for c in grid.cells)
    calls.clear()
    baseline = run_reference_baseline(cfg, [3, 4], ["okm", "bsas"], data=small_data)
    assert calls == [(len(corpus) + len(stream), 8)]
    assert all(c.silhouette is not None for c in baseline.cells)


def test_tau_sweep_frees_the_raw_features_before_routing(tmp_path, monkeypatch):
    path = tmp_path / "all.csv"
    save_dataset(make_family_dataset(seed=4, corpus_per_family=40, stream_known_per_family=10,
                                     stream_new_per_family=20), path)
    gc.collect()
    existing = [o for o in gc.get_objects() if isinstance(o, Dataset)]
    alive = []
    real = pipeline.sweep_tau

    def spy(*args, **kwargs):
        gc.collect()
        alive.extend(o.ids[:1] for o in gc.get_objects()
                     if isinstance(o, Dataset) and not any(o is e for e in existing))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sweep_tau", spy)
    config = PipelineConfig(data_path=str(path), cutoff="2018-11", n_features=10,
                            corpus_epochs=1)
    assert len(run_tau_sweep(config, [0.0])) == 1
    assert alive == []
