"""Fast checks of the benchmark itself, at the smoke size.

Run from the repository root: python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import CUTOFF, SIZES, WORKLOADS, Fixture, check_outputs  # noqa: E402

from famstream import cli  # noqa: E402
from famstream.decision import accepts  # noqa: E402
from famstream.synthetic import make_family_dataset  # noqa: E402
from famstream.data import save_dataset  # noqa: E402
from famstream.wknn import ReferenceSet, WKNNParams, classify  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMED_LAYERS = [m["name"] for m in BENCH["per_layer"]
                if m["unit"] == "s" and m["name"].split(".")[0] not in ("process", "trace")]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_self_times_partition_the_root_span():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_spans_and_keeps_checks_off_the_clock():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))

    def check(args, result):
        with tracer.off_clock():
            time.sleep(0.05)

    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)], after=check)
    tracer.wrap("root", lambda: [mid() for _ in range(2)])()
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "mid", "leaf", "leaf", "leaf", "mid", "leaf", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 1, 0, 5, 5, 5]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert root[2] - root[1] < 0.05 <= tracer.paused_s


def test_oracles_agree_with_the_program():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(300, 6))
    ref = ReferenceSet(points=points, labels=list(rng.integers(0, 4, size=300)))
    for exact in (True, False):
        for weighting in ("distance", "uniform"):
            params = WKNNParams(k=5, weighting=weighting)
            for x in rng.normal(size=(40, 6)):
                label, _ = classify(ref, params, x)
                assert oracle.wknn_label(ref.points, ref.labels, x, 5, weighting, exact) == label
        members, centroid = points[:50], points[:50].mean(axis=0)
        decisions = set()
        for x in rng.normal(scale=1.5, size=(60, 6)):
            for tau in (-1.0, 0.0, 1.0):
                want = oracle.witness_accepts(members, centroid, x, tau, exact)
                assert want == accepts(members, centroid, x, tau)
                decisions.add(want)
        assert decisions == {True, False}


def test_oracle_check_counts_a_wrong_decision():
    import child

    rng = np.random.default_rng(2)
    members = rng.normal(size=(20, 4))
    x, centroid = members[0] * 0.5, members.mean(axis=0)
    counts = child.Counts(Tracer(), oracle_every=2, check_all=True)
    truth = accepts(members, centroid, x, 0.5)
    counts.accepts((members, centroid, x, 0.5), truth)
    counts.accepts((members, centroid, x, 0.5), not truth)
    counts.accepts((members, centroid, x, 0.5), not truth)
    assert counts.oracle["checked"] == 5 and counts.oracle["exact"] == 2
    assert counts.oracle["mismatches"] == 3


def test_output_check_rejects_altered_results(tmp_path):
    data = make_family_dataset(seed=4, **SIZES["smoke"])
    save_dataset(data, tmp_path / "data.csv")
    out = tmp_path / "out"
    argv = [*WORKLOADS["route-1x"].command, "--data", str(tmp_path / "data.csv"),
            "--cutoff", CUTOFF, "-o", str(out)]
    assert cli.main(argv) == 0
    fx = Fixture.from_dataset(data)
    errors, quality = check_outputs(WORKLOADS["route-1x"], out, fx)
    assert errors == [] and 0 < quality["purity_known"] <= 1
    path = out / "assignments.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    flipped = lines[1].replace(",new,", ",known,") if ",new," in lines[1] else \
        lines[1].replace(",known,", ",new,")
    path.write_text("\n".join([lines[0], flipped, *lines[2:]]) + "\n", encoding="utf-8")
    errors, _ = check_outputs(WORKLOADS["route-1x"], out, fx)
    assert any("routes" in e for e in errors)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    section = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert "failed_frac 0 ratio" in proc.stdout
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert sum(values[n] for n in TIMED_LAYERS) == pytest.approx(values["trace.wall_s"], abs=1e-6)
    routed = workload != "direct-baseline"
    for name in ("wknn.classify_calls", "decision.accepts_calls", "wknn.rows_scanned",
                 "decision.members_scanned"):
        assert (values[name] > 0) == routed
    assert values["online.pushes"] > 0 or workload == "tau-sweep"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "route-1x", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
