"""The benchmark's workloads and the checks on their result files.

Why each workload exists (BENCHMARK.json carries the one-line form):

- route-1x: `famstream run` at the defaults (okm, 4 online clusters,
  tau -2, k=3), one repeat. The paper's operating point and the hot path:
  routing is about 70% of the wall time at an accept ratio near 0.38. WKNN
  and decision optimisations must show their gains here.
- tau-sweep: `famstream sweep-tau --taus=-5,0,5`. The same layers, write
  heavy: three replays from deep copies with accept ratios near 0.10, 0.72
  and 1.00; at +5 every sample grows the reference set (4000 -> 7000 rows)
  and a member buffer. Precomputed corpus distances win at -5 and must not
  lose at +5.
- direct-baseline: `famstream baseline --algorithms okm,som,bsas
  --cluster-counts 7`, one repeat. Bypasses wknn and decision entirely:
  each cell refits scaler+PCA, pushes all 7000 rows through an online
  clusterer and scores silhouette over 7000 points. Routing changes must
  not move it; metrics and online changes show here.

Which layer metric should move which end-to-end metric, and where:
data.load_s and preprocess.fit_* -> setup_s everywhere (and wall_s on
direct-baseline); preprocess.transform_* and batch.som_batch_s -> setup_s
and stream_samples_per_s on the routing workloads; wknn.* and decision.* ->
stream_samples_per_s and sample_p50_ms/sample_p95_ms on route-1x and
tau-sweep, no change on direct-baseline; wknn.ref_add_s and decision.deepcopy_s ->
wall_s on tau-sweep; online.* and metrics.* -> wall_s on direct-baseline
(metrics also about 15% of route-1x); report.* -> wall_s on route-1x.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

CUTOFF = "2018-11"

# Generator arguments on top of the seed. "full" is the tests' benchmark_data
# fixture (4 x 1000 corpus rows, 3000 stream rows, 100 dims); "smoke" is their
# small_data fixture.
SIZES = {
    "full": {},
    "smoke": {"corpus_per_family": 150, "stream_known_per_family": 40,
              "stream_new_per_family": 80},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI arguments; run.py adds the input and output flags
    sample_step: str  # "route": each route_sample call; "push": each StreamingClusterer.push
    replays: int  # times the stream is routed (0: routing bypassed)
    cells: int  # online-clusterer passes over every row (direct-baseline)
    result_files: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("route-1x", ("run", "--repeats", "1"), "route", 1, 0,
                 ("report.json", "assignments.csv")),
        Workload("tau-sweep", ("sweep-tau", "--taus=-5,0,5"), "route", 3, 0,
                 ("tau_sweep.csv",)),
        Workload("direct-baseline",
                 ("baseline", "--algorithms", "okm,som,bsas", "--cluster-counts", "7",
                  "--repeats", "1"),
                 "push", 0, 3, ("baseline_results.csv",)),
    )
}

TAUS = (-5.0, 0.0, 5.0)
BASELINE_CELLS = (("okm", "7"), ("som", "7"), ("bsas", "7"))


@dataclass(frozen=True)
class Fixture:
    """What the benchmark knows about its generated input, independently of the program."""

    n_rows: int
    stream_ids: tuple[str, ...]  # arrival order: first_seen ascending, ties in file order
    family: dict[str, str]

    @classmethod
    def from_dataset(cls, data) -> "Fixture":
        stream = sorted(
            (s for s in data.samples if s.first_seen >= CUTOFF), key=lambda s: s.first_seen
        )
        return cls(
            n_rows=len(data.samples),
            stream_ids=tuple(s.id for s in stream),
            family={s.id: s.family for s in data.samples},
        )


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _unit_interval(name: str, value, low: float = 0.0) -> list[str]:
    if not isinstance(value, float) or not math.isfinite(value) or not low <= value <= 1.0:
        return [f"{name} = {value!r} is not a number in [{low}, 1]"]
    return []


def _purity(groups: dict[str, list[str]], family: dict[str, str]) -> float:
    top = sum(max(Counter(family[i] for i in ids).values()) for ids in groups.values() if ids)
    return top / sum(len(ids) for ids in groups.values())


def check_outputs(workload: Workload, outdir: Path, fx: Fixture) -> tuple[list[str], dict]:
    """Check one command's result files; returns (errors, quality numbers)."""
    try:
        return _CHECKS[workload.name](outdir, fx)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable result files: {type(exc).__name__}: {exc}"], {}


def _check_run(outdir: Path, fx: Fixture) -> tuple[list[str], dict]:
    errors: list[str] = []
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    (rep,) = report["repeats"]
    n = len(fx.stream_ids)
    if rep["stream_size"] != n or rep["known_count"] + rep["new_count"] != n:
        errors.append(f"report counts {rep['known_count']}+{rep['new_count']} != stream {n}")
    rows = _rows(outdir / "assignments.csv")
    if rows[0] != ["sample_id", "route", "cluster_id"]:
        errors.append(f"assignments.csv header {rows[0]}")
    if tuple(r[0] for r in rows[1:]) != fx.stream_ids:
        errors.append("assignments.csv ids are not the stream in arrival order")
    routes = Counter(r[1] for r in rows[1:])
    if set(routes) - {"known", "new"} or routes["new"] != rep["new_count"]:
        errors.append(f"assignments.csv routes {dict(routes)} vs new_count {rep['new_count']}")
    known = json.loads((outdir / "models" / "known_clusters.json").read_text(encoding="utf-8"))
    groups = {str(c["id"]): c["member_ids"] for c in known["clusters"]}
    if sum(len(ids) for ids in groups.values()) != fx.n_rows - rep["new_count"]:
        errors.append("known clusters do not hold the corpus plus the accepted samples")
    elif abs(_purity(groups, fx.family) - rep["purity_known"]) > 1e-12:
        errors.append(f"purity_known {rep['purity_known']} disagrees with the member lists")
    quality = {name: rep[name] for name in
               ("new_route_fraction", "purity_new", "silhouette_new",
                "purity_known", "silhouette_known")}
    for name in ("purity_new", "purity_known"):
        errors += _unit_interval(name, quality[name], low=1e-12)
    for name in ("silhouette_new", "silhouette_known"):
        errors += _unit_interval(name, quality[name], low=-1.0)
    return errors, quality


def _check_sweep(outdir: Path, fx: Fixture) -> tuple[list[str], dict]:
    errors: list[str] = []
    rows = _rows(outdir / "tau_sweep.csv")
    if rows[0] != ["tau", "new_fraction"] or tuple(float(r[0]) for r in rows[1:]) != TAUS:
        errors.append(f"tau_sweep.csv rows {rows}")
    quality = {}
    n = len(fx.stream_ids)
    for tau, fraction in rows[1:]:
        value = float(fraction)
        errors += _unit_interval(f"new_fraction at tau {tau}", value)
        if abs(value * n - round(value * n)) > 1e-6:
            errors.append(f"new_fraction {value} is not a count out of {n}")
        quality[f"new_fraction_tau{float(tau):+g}"] = value
    return errors, quality


def _check_baseline(outdir: Path, fx: Fixture) -> tuple[list[str], dict]:
    errors: list[str] = []
    rows = _rows(outdir / "baseline_results.csv")
    if rows[0] != ["algorithm", "clusters", "repeat", "seed", "purity", "silhouette"]:
        errors.append(f"baseline_results.csv header {rows[0]}")
    if tuple((r[0], r[1]) for r in rows[1:]) != BASELINE_CELLS:
        errors.append(f"baseline cells {[r[:2] for r in rows[1:]]}")
    per_cell = defaultdict(dict)
    for algorithm, _, _, _, pur, sil in rows[1:]:
        per_cell["purity_new"][algorithm] = float(pur)
        per_cell["silhouette_new"][algorithm] = float(sil)
        errors += _unit_interval(f"{algorithm} purity", float(pur), low=1e-12)
        errors += _unit_interval(f"{algorithm} silhouette", float(sil), low=-1.0)
    quality = {f"{name}_{algo}": v for name, cells in per_cell.items() for algo, v in cells.items()}
    for name, cells in per_cell.items():
        quality[name] = sum(cells.values()) / len(cells)
    return errors, quality


_CHECKS = {"route-1x": _check_run, "tau-sweep": _check_sweep, "direct-baseline": _check_baseline}
