import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import famstream
from famstream import cli, pipeline
from famstream.cli import main, parse_float_list, parse_int_list, UsageError
from famstream.data import save_dataset
from famstream.pipeline import PipelineConfig
from famstream.synthetic import make_corpus_and_stream, make_family_dataset


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    data = make_family_dataset(
        seed=31, dim=20, corpus_per_family=60,
        stream_known_per_family=15, stream_new_per_family=25,
    )
    combined = root / "all.csv"
    save_dataset(data, combined)
    corpus, stream = make_corpus_and_stream(
        seed=31, dim=20, corpus_per_family=60,
        stream_known_per_family=15, stream_new_per_family=25,
    )
    corpus_path, stream_path = root / "corpus.csv", root / "stream.jsonl"
    save_dataset(corpus, corpus_path)
    save_dataset(stream, stream_path, "jsonl")
    return {"combined": combined, "corpus": corpus_path, "stream": stream_path}


BASE = ["--n-features", "8", "--corpus-epochs", "2", "--repeats", "1", "--seed", "3"]


def test_parse_int_list():
    assert parse_int_list("4-7") == [4, 5, 6, 7]
    assert parse_int_list("2,5,9") == [2, 5, 9]
    assert parse_int_list("4-5,8") == [4, 5, 8]
    assert parse_int_list("8-8") == [8]
    with pytest.raises(UsageError):
        parse_int_list("")
    assert parse_float_list("-5,-2,0") == [-5.0, -2.0, 0.0]


def test_bad_cluster_counts_are_usage_errors(tmp_path, data_files, capsys):
    for text in ("x", "4,x", "4-x"):
        with pytest.raises(UsageError, match="bad integer"):
            parse_int_list(text)
    for cmd in ("grid", "baseline"):
        for counts, message in (("x", "bad integer 'x'"), ("0", "got 0"), ("3,-1", "got -1"),
                                ("4,10-8", "reversed integer range '10-8'")):
            out = tmp_path / f"{cmd}-{counts}"
            assert main([cmd, "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                         *BASE, "--cluster-counts", counts, "-o", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_run_with_split(tmp_path, data_files, capsys):
    out = tmp_path / "out"
    code = main(["run", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "-o", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "assignments.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["repeats"][0]["stream_size"] > 0
    assert "timings" not in report["repeats"][0]
    assert not (out / "timings.json").exists()
    assert "new_route_fraction" in capsys.readouterr().out


def test_run_with_pair_and_timings(tmp_path, data_files):
    out = tmp_path / "out"
    code = main(["run", "--corpus", str(data_files["corpus"]),
                 "--stream", str(data_files["stream"]), *BASE,
                 "--emit-timings", "-o", str(out)])
    assert code == 0
    assert (out / "timings.json").exists()
    assert (out / "total_timings.csv").exists()
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings["repeats"][0]) >= {"preprocess", "total"}


def test_config_file_with_flag_override(tmp_path, data_files):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "data_path": str(data_files["combined"]),
        "cutoff": "2018-11",
        "n_features": 8,
        "corpus_epochs": 2,
        "repeats": 1,
        "wknn": {"k": 5},
        "decision": {"tau": 0.0},
    }))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--tau", "-1.0", "-o", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["decision"]["tau"] == -1.0  # flag wins
    assert report["config"]["wknn"]["k"] == 5            # file survives


def test_every_config_flag_reaches_its_field(tmp_path, data_files):
    out = tmp_path / "out"
    corpus, stream, combined = (str(data_files[k]) for k in ("corpus", "stream", "combined"))
    # (flag tokens, config field or "section.field", the value report.json echoes)
    table = [
        (["--corpus", corpus], "corpus_path", corpus),
        (["--stream", stream], "stream_path", stream),
        (["--data", combined], "data_path", combined),
        (["--cutoff", "2018-11"], "cutoff", "2018-11"),
        (["--format", "csv"], "fmt", "csv"),
        (["--n-features", "6"], "n_features", 6),
        (["--corpus-clusters", "3"], "corpus_clusters", 3),
        (["--corpus-epochs", "1"], "corpus_epochs", 1),
        (["--wknn-k", "4"], "wknn.k", 4),
        (["--wknn-weighting", "uniform"], "wknn.weighting", "uniform"),
        (["--tau", "1.5"], "decision.tau", 1.5),
        (["--freeze-centroids"], "decision.update_centroids", False),
        (["--freeze-members"], "decision.grow_members", False),
        (["--no-grow-reference"], "decision.grow_reference", False),
        (["--online-algorithm", "bsas"], "online_algorithm", "bsas"),
        (["--online-clusters", "5"], "online_clusters", 5),
        (["--bsas-theta", "3.5"], "bsas_theta", 3.5),
        (["--repeats", "2"], "repeats", 2),
        (["--seed", "9"], "seed", 9),
        (["--no-silhouette"], "compute_silhouette", False),
        (["--no-known-metrics"], "compute_known_metrics", False),
        (["-o", str(out)], "output_dir", str(out)),
    ]
    argv = ["run", *(token for flags, _, _ in table for token in flags)]
    # the table holds every flag whose dest is a config field
    dests = vars(cli.make_parser().parse_args(argv))
    assert {d for d in dests if d.partition(".")[0] in cli.CONFIG_FIELDS} == \
        {field for _, field, _ in table}

    def echoed(config, field):
        section, _, name = field.rpartition(".")
        return config[section][name] if section else config[name]

    defaults = PipelineConfig().to_dict()
    assert main(argv) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    for flags, field, value in table:
        assert echoed(defaults, field) != value, flags  # the echo shows the flag was read
        assert echoed(config, field) == value, flags


def test_grid_outputs(tmp_path, data_files):
    out = tmp_path / "grid"
    code = main(["grid", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "--cluster-counts", "4-5", "--algorithms", "okm,bsas",
                 "-o", str(out)])
    assert code == 0
    lines = (out / "grid_results.csv").read_text().splitlines()
    assert lines[0] == "algorithm,clusters,repeat,seed,n_new,purity,silhouette"
    assert len(lines) == 1 + 4  # 2 algorithms x 2 counts x 1 repeat
    assert (out / "online_metrics.csv").exists()
    assert not (out / "online_timings.csv").exists()


def test_baseline_outputs(tmp_path, data_files):
    out = tmp_path / "base"
    code = main(["baseline", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "--cluster-counts", "4", "--algorithms", "okm",
                 "--no-silhouette", "-o", str(out)])
    assert code == 0
    lines = (out / "baseline_results.csv").read_text().splitlines()
    assert lines[0] == "algorithm,clusters,repeat,seed,purity,silhouette"
    assert len(lines) == 2
    assert (out / "baseline_metrics.csv").exists()


def test_sweep_tau_outputs(tmp_path, data_files):
    out = tmp_path / "sweep"
    # negative taus need the = form, else argparse reads them as flags
    code = main(["sweep-tau", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "--taus=-5,-2,0,2,5", "-o", str(out)])
    assert code == 0
    lines = (out / "tau_sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,new_fraction"
    assert len(lines) == 6


def test_select_features_outputs(tmp_path, data_files):
    out = tmp_path / "sel"
    code = main(["select-features", "--data", str(data_files["combined"]),
                 "--cutoff", "2018-11", *BASE,
                 "--candidates", "4,8", "--clusterers", "kmeans,som", "-o", str(out)])
    assert code == 0
    sel = json.loads((out / "feature_selection.json").read_text())
    assert sel["best_n_features"] in (4, 8)
    lines = (out / "feature_count_silhouette.csv").read_text().splitlines()
    assert lines[0] == "n_features,clusterer,mean_silhouette"
    assert len(lines) == 1 + 4


def test_usage_errors_exit_1(tmp_path, data_files):
    assert main(["run"]) == 1                      # no data arguments
    assert main(["run", "--bogus-flag"]) == 1      # unknown flag
    assert main(["grid", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 "--algorithms", "bogus", "-o", str(tmp_path)]) == 1
    assert main(["run", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 "--wknn-weighting", "cosine"]) == 1


@pytest.mark.parametrize("cmd", ["baseline", "sweep-tau", "select-features"])
def test_emit_timings_only_where_timing_files_exist(tmp_path, data_files, capsys, cmd):
    out = tmp_path / "out"
    code = main([cmd, "--data", str(data_files["combined"]), "--cutoff", "2018-11", *BASE,
                 "--emit-timings", "-o", str(out)])
    assert code == 1
    assert "--emit-timings" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_numbers_are_usage_errors(tmp_path, data_files, capsys):
    data = ["--data", str(data_files["combined"]), "--cutoff", "2018-11", *BASE]
    for taus in ("nan", "inf,0", "0,-inf"):
        out = tmp_path / f"tau-{taus}"
        assert main(["sweep-tau", *data, f"--taus={taus}", "-o", str(out)]) == 1
        assert "non-finite value in float list" in capsys.readouterr().err
        assert not out.exists()
    for theta in ("nan", "inf", "-1"):
        out = tmp_path / f"theta-{theta}"
        assert main(["run", *data, "--online-algorithm", "bsas", "--bsas-theta", theta,
                     "-o", str(out)]) == 1
        assert "bsas_theta must be finite and positive" in capsys.readouterr().err
        assert not out.exists()
    config = tmp_path / "theta.json"
    config.write_text('{"online_algorithm": "bsas", "bsas_theta": NaN}')
    assert main(["run", *data, "--config", str(config), "-o", str(tmp_path / "cfg")]) == 1
    assert "bsas_theta must be finite and positive" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["run", "--corpus", str(missing), "--stream", str(missing)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("id,family,first_seen,f0\nx,,,nan\n")
    assert main(["run", "--data", str(bad), "--cutoff", "2018-01"]) == 2
    dated = tmp_path / "dated.jsonl"
    dated.write_text('{"id": "x", "first_seen": 201811, "features": [1.0]}\n')
    assert main(["run", "--data", str(dated), "--cutoff", "2018-01"]) == 2
    dated.write_text('{"id": "x", "first_seen": "2018-11", "features": [true]}\n')
    assert main(["run", "--data", str(dated), "--cutoff", "2018-01"]) == 2
    corpus, stream = make_corpus_and_stream(seed=31, dim=20, corpus_per_family=60,
                                            stream_known_per_family=15,
                                            stream_new_per_family=25)
    shared = corpus.ids[7]
    stream = dataclasses.replace(stream, ids=[shared, *stream.ids[1:]])
    save_dataset(corpus, tmp_path / "corpus.csv")
    save_dataset(stream, tmp_path / "stream.csv")
    out = tmp_path / "out"
    assert main(["baseline", "--corpus", str(tmp_path / "corpus.csv"),
                 "--stream", str(tmp_path / "stream.csv"), *BASE,
                 "--cluster-counts", "4", "-o", str(out)]) == 2
    assert f"corpus and stream share 1 sample id(s): ['{shared}']" in capsys.readouterr().err
    assert not out.exists()


def test_config_shape_errors_exit_1(tmp_path, data_files, capsys):
    data = ["--data", str(data_files["combined"]), "--cutoff", "2018-11"]
    for config, message in (
        ([1, 2], "config file must hold a JSON object"),
        ({"wknn": 5}, "config field 'wknn' must be a JSON object"),
        ({"decision": [0.5]}, "config field 'decision' must be a JSON object"),
        ({"n_features": 10.5}, "n_features must be an integer, got 10.5"),
        ({"corpus_epochs": True}, "corpus_epochs must be an integer, got True"),
        ({"wknn": {"k": 2.5}}, "k must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", *data, "--config", str(path), "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    # wrongly typed fields of a run that is otherwise valid
    for config, message in (
        ({"compute_silhouette": "false"}, "compute_silhouette must be true or false, got 'false'"),
        ({"compute_known_metrics": 0}, "compute_known_metrics must be true or false, got 0"),
        ({"decision": {"grow_members": "false"}}, "grow_members must be true or false"),
        ({"decision": {"update_centroids": 1}}, "update_centroids must be true or false, got 1"),
        ({"decision": {"grow_reference": None}}, "grow_reference must be true or false"),
        ({"decision": {"tau": True}}, "tau must be a number, got True"),
        ({"decision": {"tau": "1"}}, "tau must be a number, got '1'"),
        ({"bsas_theta": True}, "bsas_theta must be finite and positive, got True"),
        ({"bsas_theta": "2"}, "bsas_theta must be finite and positive, got '2'"),
        ({"corpus_path": 5}, "corpus_path must be a string or null, got 5"),
        ({"fmt": ["csv"]}, "fmt must be a string or null, got ['csv']"),
    ):
        path.write_text(json.dumps(config))
        assert main(["run", *data, *BASE, "--config", str(path), "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    # a cutoff flag would override the config's cutoff
    path.write_text(json.dumps({"cutoff": 201811}))
    assert main(["run", *data[:2], *BASE, "--config", str(path), "-o", str(out)]) == 1
    assert "cutoff must be a string or null, got 201811" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_cutoff_and_fmt_are_usage_errors(tmp_path, data_files, capsys):
    combined = ["--data", str(data_files["combined"])]
    pair = ["--corpus", str(data_files["corpus"]), "--stream", str(data_files["stream"])]
    out = tmp_path / "out"
    for args, message in (
        ([*combined, "--cutoff", "2018-13"], "cutoff: month out of range in '2018-13'"),
        ([*pair, "--cutoff", "2018-99"], "cutoff: month out of range in '2018-99'"),
    ):
        assert main(["run", *args, *BASE, "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    path = tmp_path / "config.json"
    for config, message in (
        ({"cutoff": "201811"}, "cutoff: expected YYYY-MM date, got '201811'"),
        ({"cutoff": "2018-11", "fmt": "xml"}, "fmt must be 'csv', 'jsonl' or null, got 'xml'"),
    ):
        path.write_text(json.dumps(config))
        assert main(["run", *combined, *BASE, "--config", str(path), "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_header_only_stream_is_an_empty_stream(tmp_path, data_files, capsys):
    stream = tmp_path / "stream.csv"
    header = Path(data_files["corpus"]).read_text(encoding="utf-8").splitlines()[0]
    stream.write_text(header + "\n", encoding="utf-8")
    pair = ["--corpus", str(data_files["corpus"]), "--stream", str(stream), *BASE]
    counts = ["--cluster-counts", "4", "--algorithms", "okm"]
    for cmd, extra in (("run", []), ("grid", counts), ("baseline", counts), ("sweep-tau", [])):
        assert main([cmd, *pair, *extra, "-o", str(tmp_path / cmd)]) == 0, cmd
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["repeats"][0]["stream_size"] == 0
    rows = (tmp_path / "sweep-tau" / "tau_sweep.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",0.0") for row in rows)
    # an empty JSONL file declares no dimension; an empty corpus cannot be fit
    empty_jsonl = tmp_path / "stream.jsonl"
    empty_jsonl.write_text("")
    assert main(["run", "--corpus", str(data_files["corpus"]), "--stream", str(empty_jsonl),
                 *BASE, "-o", str(tmp_path / "jsonl")]) == 2
    assert "cannot infer dimension of an empty dataset" in capsys.readouterr().err
    assert main(["run", "--corpus", str(stream), "--stream", str(data_files["stream"]),
                 *BASE, "-o", str(tmp_path / "corpus")]) == 1
    assert "corpus is empty" in capsys.readouterr().err


def test_select_features_usage_errors_exit_1(tmp_path, data_files, monkeypatch, capsys):
    def no_clustering(*args, **kwargs):
        raise AssertionError("clustering ran")

    monkeypatch.setattr(cli, "select_feature_count", no_clustering)
    data = ["--data", str(data_files["combined"]), "--cutoff", "2018-11", *BASE]
    # the combined fixture splits into a 240-row corpus in 20 dimensions
    for flags, message in (
        (["--candidates", "0"], "--candidates must lie in [1, min(dim=20, corpus size=240)]"),
        (["--candidates", "4,500"], "got [4, 500]"),
        (["--dbscan-min-samples", "0"], "--dbscan-min-samples must be >= 1, got 0"),
        (["--dbscan-eps", "0"], "--dbscan-eps must be finite and positive, got 0.0"),
        (["--dbscan-eps", "nan"], "--dbscan-eps must be finite and positive, got nan"),
    ):
        out = tmp_path / "out"
        assert main(["select-features", *data, *flags, "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_select_features_with_every_cell_failed_exits_1(tmp_path, data_files, capsys):
    # an eps this small makes every point DBSCAN noise, so no cell is scored
    out = tmp_path / "out"
    assert main(["select-features", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "--clusterers", "dbscan", "--dbscan-eps", "1e-9",
                 "--candidates", "2,4", "-o", str(out)]) == 1
    assert "usage error: every grid cell failed" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_errors_exit_3(tmp_path, data_files, monkeypatch, capsys):
    def failing_run(config, data=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_pipeline", failing_run)
    code = main(["run", "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "-o", str(tmp_path / "x")])
    assert code == 3
    assert "error: RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["run", "sweep-tau"])
def test_data_shape_config_errors_exit_1(tmp_path, data_files, capsys, cmd):
    # the combined fixture splits into a 240-row corpus in 20 dimensions
    for flags, message in (
        (["--n-features", "21"], "n_features=21 exceeds min(dim=20, corpus size=240)"),
        (["--n-features", "500"], "n_features=500 exceeds min(dim=20, corpus size=240)"),
        (["--wknn-k", "241"], "wknn k=241 exceeds corpus size 240"),
    ):
        out = tmp_path / f"{cmd}-{flags[1]}"
        args = [cmd, "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                *BASE, *flags, "-o", str(out)]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert main([cmd, "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                 *BASE, "--n-features", "20", "--wknn-k", "240",
                 "-o", str(tmp_path / f"{cmd}-edge")]) == 0


def test_failed_cells_reported_on_stderr(tmp_path, data_files, monkeypatch, capsys):
    real = pipeline._cluster_cell

    def failing_bsas(points, algorithm, n_clusters, base, config):
        if algorithm == "bsas":
            raise ValueError("bsas went wrong")
        return real(points, algorithm, n_clusters, base, config)

    monkeypatch.setattr(pipeline, "_cluster_cell", failing_bsas)
    for cmd in ("grid", "baseline"):
        out = tmp_path / cmd
        assert main([cmd, "--data", str(data_files["combined"]), "--cutoff", "2018-11",
                     *BASE, "--cluster-counts", "3,4", "--algorithms", "okm,bsas",
                     "-o", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["cell bsas k=3 repeat 0 failed: bsas went wrong",
                       "cell bsas k=4 repeat 0 failed: bsas went wrong"]
        results = (out / f"{cmd}_results.csv").read_text()
        assert "went wrong" not in results


def scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter; the scipy modules it left loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(famstream.__file__).parents[1]))
    probe = ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    child = subprocess.run([sys.executable, "-c", code + probe], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    assert scipy_modules_after("import famstream.cli") == []


def test_sweep_tau_runs_without_scipy(tmp_path, small_data):
    corpus, stream = small_data
    save_dataset(corpus, tmp_path / "corpus.csv")
    save_dataset(stream, tmp_path / "stream.csv")
    argv = ["sweep-tau", "--corpus", str(tmp_path / "corpus.csv"),
            "--stream", str(tmp_path / "stream.csv"), "-o", str(tmp_path / "out")]
    assert scipy_modules_after(f"from famstream.cli import main\nassert main({argv!r}) == 0") == []
    assert (tmp_path / "out" / "tau_sweep.csv").exists()


def test_result_bytes_do_not_depend_on_blas_threads(tmp_path, small_data):
    corpus, stream = small_data
    save_dataset(corpus, tmp_path / "corpus.csv")
    save_dataset(stream, tmp_path / "stream.csv")
    data = ["--corpus", str(tmp_path / "corpus.csv"), "--stream", str(tmp_path / "stream.csv")]
    outputs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, PYTHONPATH=str(Path(famstream.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        for cmd in ("run", "baseline"):
            # the same relative output path, which report.json echoes
            subprocess.run([sys.executable, "-m", "famstream", cmd, *data, "--repeats", "2",
                            "-o", cmd], cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)
            outputs[cmd, threads] = {p.relative_to(cwd).as_posix(): p.read_bytes()
                                     for p in sorted((cwd / cmd).rglob("*")) if p.is_file()}
    for cmd in ("run", "baseline"):
        assert outputs[cmd, "1"] and outputs[cmd, "1"] == outputs[cmd, "2"] == outputs[cmd, "4"]
