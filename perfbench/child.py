"""Run one famstream CLI command in this fresh process and report its timings.

Usage: python3 perfbench/child.py SPEC.json

SPEC is written by run.py: `argv` (the CLI arguments), `sample_step`
("route" or "push"), `trace` (bool), `oracle_every` (check every Nth WKNN
label and witness decision against the exact oracle; traced only),
`check_all` (check every decision against the fast oracle too), `result`
(where to write this process's JSON report) and `spans`.

Untraced, only the per-sample step is wrapped, so each call is timed as the
stream's client sees it. Traced, every layer boundary in PATCH_POINTS gets a
span, and the spans are written to the CSV file named by `spans` once the
command has returned.
"""

from __future__ import annotations

import copy
import csv
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

from famstream import batch, cli, decision, online, pipeline, wknn  # noqa: E402

# Layer metric (without its "_s" suffix) that each wrapped attribute's self time
# counts toward; the root span (cli.main) counts toward pipeline.self.
PATCH_POINTS = [
    (pipeline, "load_dataset", "data.load"),
    (pipeline, "split_by_time", "data.load"),
    (pipeline, "fit_scaler", "preprocess.fit"),
    (pipeline, "fit_pca", "preprocess.fit"),
    (pipeline, "apply_scaler", "preprocess.transform"),
    (pipeline, "transform_pca", "preprocess.transform"),
    (pipeline, "som_batch", "batch.som_batch"),
    (pipeline, "route_sample", "decision.route_self"),
    (decision, "route_sample", "decision.route_self"),
    (decision, "classify", "wknn.classify"),
    (decision, "accepts", "decision.accepts"),
    (batch.Cluster, "add_member", "decision.add_member"),
    (wknn.ReferenceSet, "add", "wknn.ref_add"),
    (online.StreamingClusterer, "push", "online.push"),
    (pipeline, "final_assign", "online.final_assign"),
    (pipeline, "mean_silhouette", "metrics.silhouette"),
    (pipeline, "purity", "metrics.purity"),
    (cli, "write_run_outputs", "report.write"),
    (cli, "write_tau_sweep", "report.write"),
    (cli, "write_baseline_results", "report.write"),
    (cli, "write_baseline_metrics", "report.write"),
]
ROOT_SPAN = "cli.main"
DEEPCOPY_SPAN = "decision.copy.deepcopy"


def _span_name(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


LAYER_OF = {_span_name(owner, attr): layer for owner, attr, layer in PATCH_POINTS}
LAYER_OF[DEEPCOPY_SPAN] = "decision.deepcopy"
LAYER_OF[ROOT_SPAN] = "pipeline.self"
SAMPLE_STEPS = {
    "route": [(pipeline, "route_sample"), (decision, "route_sample")],
    "push": [(online.StreamingClusterer, "push")],
}


class Counts:
    """Exact work counts and oracle checks, fed by the wrappers' after-hooks.

    Every Nth WKNN label and witness decision is checked against the exact
    oracle; with check_all, every one is also checked against the fast
    oracle. Checks run off the trace clock.
    """

    def __init__(self, tracer: Tracer, oracle_every: int, check_all: bool = False):
        self.tracer = tracer
        self.every = oracle_every
        self.check_all = check_all
        self.work = {"wknn.rows_scanned": 0, "wknn.ref_final_size": 0,
                     "decision.members_scanned": 0, "decision.accepted": 0,
                     "metrics.silhouette_pairs": 0}
        self.oracle = {"checked": 0, "exact": 0, "mismatches": 0, "ambiguous": 0,
                       "first_mismatch": None}
        self._calls = {"classify": 0, "accepts": 0}

    def _check(self, what: str, got, reference, *args) -> None:
        self._calls[what] += 1
        calls = self._calls[what]
        forms = [False] if self.check_all else []
        if self.every and calls % self.every == 1 % self.every:
            forms.append(True)
        if not forms:
            return
        with self.tracer.off_clock():
            for exact in forms:
                want = reference(*args, exact=exact)
                if want is None:
                    self.oracle["ambiguous"] += 1
                    continue
                self.oracle["checked"] += 1
                self.oracle["exact"] += exact
                if want != got:
                    self.oracle["mismatches"] += 1
                    if self.oracle["first_mismatch"] is None:
                        form = "exact" if exact else "fast"
                        self.oracle["first_mismatch"] = (
                            f"{what} call {calls}: {form} oracle {want!r}, program {got!r}")

    def classify(self, args, result) -> None:
        ref, params, x = args
        self.work["wknn.rows_scanned"] += len(ref)
        self.work["wknn.ref_final_size"] = max(self.work["wknn.ref_final_size"], len(ref))
        self._check("classify", result[0], oracle.wknn_label,
                    ref.points, ref.labels, x, params.k, params.weighting)

    def accepts(self, args, result) -> None:
        members, centroid, x, tau = args
        self.work["decision.members_scanned"] += len(members)
        self.work["decision.accepted"] += bool(result)
        self._check("accepts", bool(result), oracle.witness_accepts, members, centroid, x, tau)

    def ref_add(self, args, result) -> None:
        self.work["wknn.ref_final_size"] = max(self.work["wknn.ref_final_size"], len(args[0]))

    def silhouette(self, args, result) -> None:
        self.work["metrics.silhouette_pairs"] += len(args[0]) ** 2


def _median_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def run_traced(spec: dict) -> tuple[int, dict]:
    tracer = Tracer()
    counts = Counts(tracer, spec["oracle_every"], spec["check_all"])
    hooks = {"classify": counts.classify, "accepts": counts.accepts,
             "add": counts.ref_add, "mean_silhouette": counts.silhouette}
    for owner, attr, _ in PATCH_POINTS:
        tracer.patch(owner, attr, _span_name(owner, attr), hooks.get(attr))
    decision_copy = decision.copy
    decision.copy = types.SimpleNamespace(deepcopy=tracer.wrap(DEEPCOPY_SPAN, copy.deepcopy))
    try:
        rc = tracer.wrap(ROOT_SPAN, cli.main)(spec["argv"])
    finally:
        decision.copy = decision_copy
        tracer.restore()

    spans = tracer.spans
    layers = {layer: 0.0 for layer in LAYER_OF.values()}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        layers[LAYER_OF[name]] += own
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)
    routes = calls.get("pipeline.route_sample", 0) + calls.get("decision.route_sample", 0)
    report = {
        "root_s": spans[0][2] - spans[0][1],
        "paused_s": tracer.paused_s,
        "layers": layers,
        "counts": {
            "preprocess.fit_calls": calls.get("pipeline.fit_scaler", 0)
            + calls.get("pipeline.fit_pca", 0),
            "preprocess.transform_calls": calls.get("pipeline.transform_pca", 0),
            "decision.route_calls": routes,
            "wknn.classify_calls": calls.get("decision.classify", 0),
            "decision.accepts_calls": calls.get("decision.accepts", 0),
            "online.pushes": calls.get("StreamingClusterer.push", 0),
            "metrics.silhouette_calls": calls.get("pipeline.mean_silhouette", 0),
            "trace.spans": len(spans),
            **counts.work,
        },
        "p50_us": {
            "wknn.classify": _median_us(durations.get("decision.classify", [])),
            "online.push": _median_us(durations.get("StreamingClusterer.push", [])),
        },
        "oracle": counts.oracle,
    }
    with open(spec["spans"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "start", "end", "parent"])
        writer.writerows(spans)
    return rc, report


def run_timed(argv: list[str], sample_step: str) -> tuple[int, dict]:
    first: list[float] = []
    durations: list[float] = []

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            durations.append(time.perf_counter() - t0)
            if not first:
                first.append(t0)
            return result
        return call

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in SAMPLE_STEPS[sample_step]]
    for owner, attr, fn in originals:
        setattr(owner, attr, timed(fn))
    try:
        rc = cli.main(argv)
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return rc, {"first_sample": first[0] if first else None, "sample_s": durations}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t_main = time.perf_counter()
    if spec["trace"]:
        rc, report = run_traced(spec)
    else:
        rc, report = run_timed(spec["argv"], spec["sample_step"])
    t_end = time.perf_counter()
    report.update(
        rc=rc,
        t_main=t_main,
        t_end=t_end,
        max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(spec["result"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
