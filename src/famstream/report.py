"""Output writers: assignment/result CSVs, JSON reports, and plot-data files.

All writers are deterministic for deterministic inputs: fixed column orders,
repr float formatting, no timestamps. Timing data goes into clearly separate
files because wall-clock values can never be byte-reproducible.

CSV schemas (documented here and pinned by golden-file tests):

- assignments.csv:              sample_id,route,cluster_id
- grid_results.csv:             algorithm,clusters,repeat,seed,n_new,purity,silhouette
- baseline_results.csv:         algorithm,clusters,repeat,seed,purity,silhouette
- feature_count_silhouette.csv: n_features,clusterer,mean_silhouette
- tau_sweep.csv:                tau,new_fraction
- online_metrics.csv:           algorithm,clusters,purity_mean,purity_std,
                                silhouette_mean,silhouette_std
- baseline_metrics.csv:         same columns as online_metrics.csv
- online_timings.csv:           algorithm,clusters,repeat,seconds
- total_timings.csv:            repeat,total_seconds
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .decision import TauSweepPoint
from .pipeline import GridCell, GridResult, GridSummaryRow, RunReport
from .preprocess import FeatureSelectionCell

ASSIGNMENTS_HEADER = ["sample_id", "route", "cluster_id"]
GRID_RESULTS_HEADER = ["algorithm", "clusters", "repeat", "seed", "n_new", "purity", "silhouette"]
BASELINE_RESULTS_HEADER = ["algorithm", "clusters", "repeat", "seed", "purity", "silhouette"]
FEATURE_TABLE_HEADER = ["n_features", "clusterer", "mean_silhouette"]
TAU_SWEEP_HEADER = ["tau", "new_fraction"]
ONLINE_METRICS_HEADER = [
    "algorithm", "clusters", "purity_mean", "purity_std", "silhouette_mean", "silhouette_std",
]
ONLINE_TIMINGS_HEADER = ["algorithm", "clusters", "repeat", "seconds"]
TOTAL_TIMINGS_HEADER = ["repeat", "total_seconds"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_assignments(
    path: str | Path, ids: list[str], accepted: np.ndarray, cluster_ids: np.ndarray
) -> None:
    """One row per stream sample from the routing columns: id, "known" where
    accepted and "new" elsewhere, and the known or online cluster id."""
    routes = ["known" if ok else "new" for ok in accepted]
    _write_csv(Path(path), ASSIGNMENTS_HEADER, zip(ids, routes, cluster_ids.tolist()))


def write_grid_results(path: str | Path, cells: list[GridCell]) -> None:
    _write_csv(
        Path(path),
        GRID_RESULTS_HEADER,
        [
            (c.algorithm, c.clusters, c.repeat, c.seed, c.n_new, c.purity, c.silhouette)
            for c in cells
        ],
    )


def write_baseline_results(path: str | Path, cells: list[GridCell]) -> None:
    rows = [(c.algorithm, c.clusters, c.repeat, c.seed, c.purity, c.silhouette) for c in cells]
    _write_csv(Path(path), BASELINE_RESULTS_HEADER, rows)


def write_feature_selection_table(path: str | Path, table: list[FeatureSelectionCell]) -> None:
    _write_csv(
        Path(path),
        FEATURE_TABLE_HEADER,
        [(c.n_features, c.clusterer, c.mean_silhouette) for c in table],
    )


def write_tau_sweep(path: str | Path, sweep: list[TauSweepPoint]) -> None:
    _write_csv(Path(path), TAU_SWEEP_HEADER, [(p.tau, p.new_fraction) for p in sweep])


def write_online_metrics(path: str | Path, summary: list[GridSummaryRow]) -> None:
    _write_csv(
        Path(path),
        ONLINE_METRICS_HEADER,
        [
            (r.algorithm, r.clusters, r.purity_mean, r.purity_std,
             r.silhouette_mean, r.silhouette_std)
            for r in summary
        ],
    )


def write_baseline_metrics(path: str | Path, summary: list[GridSummaryRow]) -> None:
    write_online_metrics(path, summary)


def write_online_timings(path: str | Path, cells: list[GridCell]) -> None:
    _write_csv(
        Path(path),
        ONLINE_TIMINGS_HEADER,
        [(c.algorithm, c.clusters, c.repeat, c.online_seconds) for c in cells],
    )


def write_total_timings(path: str | Path, report: RunReport) -> None:
    _write_csv(
        Path(path),
        TOTAL_TIMINGS_HEADER,
        [(r.repeat, r.timings.get("total")) for r in report.repeats],
    )


def write_run_outputs(outdir: str | Path, report: RunReport, emit_timings: bool = False) -> None:
    """Write the full `run` output set into outdir.

    Deterministic files: report.json, metrics.json, assignments.csv, and the
    serialized models. timings.json and total_timings.csv appear only
    when emit_timings is set.
    """
    outdir = Path(outdir)
    write_json(outdir / "report.json", report.to_dict())
    write_json(outdir / "metrics.json", {"aggregates": report.aggregates})
    write_assignments(outdir / "assignments.csv", *report.first_assignments)
    for name, payload in report.first_models.items():
        if payload is not None:
            write_json(outdir / "models" / f"{name}.json", payload)
    if emit_timings:
        write_json(outdir / "timings.json", report.timing_dict())
        write_total_timings(outdir / "total_timings.csv", report)


def write_grid_outputs(outdir: str | Path, grid: GridResult, emit_timings: bool = False) -> None:
    """Write the `grid` output set; timing files only on request."""
    outdir = Path(outdir)
    write_grid_results(outdir / "grid_results.csv", grid.cells)
    write_online_metrics(outdir / "online_metrics.csv", grid.summary)
    if emit_timings:
        write_online_timings(outdir / "online_timings.csv", grid.cells)

