"""Command-line entry point.

Subcommands: run, grid, baseline, sweep-tau, select-features. Flags mirror
PipelineConfig fields in kebab-case; a JSON config file may supply any field
and explicit flags override it. Exit codes: 0 success, 1 usage error,
2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .batch import ClustererSpec
from .data import DataFormatError, Dataset
from .pipeline import (
    ONLINE_ALGORITHMS,
    PipelineConfig,
    check_data_shape,
    grid_axes,
    load_inputs,
    run_grid,
    run_pipeline,
    run_reference_baseline,
    run_tau_sweep,
)
from .preprocess import apply_scaler, fit_scaler, select_feature_count
from .report import (
    write_baseline_results,
    write_feature_selection_table,
    write_tau_sweep,
    write_baseline_metrics,
    write_grid_outputs,
    write_json,
    write_run_outputs,
)

DEFAULT_OUTPUT_DIR = "famstream_out"
DEFAULT_TAUS = "-5,-2,0,2,5"
DEFAULT_FEATURE_CANDIDATES = "20,30,40,50,60,70,80"
DEFAULT_CLUSTER_COUNTS = "4-10"
CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(PipelineConfig))


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise UsageError(message)


def _int(text: str, entry: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad integer {entry!r}") from None


def parse_int_list(text: str) -> list[int]:
    """Parse '4-10' ranges and '4,6,8' lists (mixable)."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # allow a leading minus sign
            lo, hi = part.split("-", 1) if not part.startswith("-") else (part, "")
            if hi == "":
                raise UsageError(f"bad integer range {part!r}")
            lo, hi = _int(lo, part), _int(hi, part)
            if lo > hi:
                raise UsageError(f"reversed integer range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_int(part, part))
    if not out:
        raise UsageError(f"empty integer list {text!r}")
    return out


def parse_float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"bad float list {text!r}") from None
    if not values:
        raise UsageError(f"empty float list {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"non-finite value in float list {text!r}")
    return values


def _add_common(parser: argparse.ArgumentParser, timings: bool = False) -> None:
    """Data, model and output flags; --emit-timings only where timing files exist."""
    data = parser.add_argument_group("data")
    data.add_argument("--corpus", dest="corpus_path",
                      help="corpus dataset file (csv or jsonl)")
    data.add_argument("--stream", dest="stream_path",
                      help="stream dataset file (csv or jsonl)")
    data.add_argument("--data", dest="data_path", help="single dataset file, split at --cutoff")
    data.add_argument("--cutoff", help="year-month split point, e.g. 2018-11")
    data.add_argument("--format", dest="fmt", choices=("csv", "jsonl"),
                      help="override format inference")

    model = parser.add_argument_group("model")
    model.add_argument("--config", help="JSON config file; flags override its fields")
    model.add_argument("--n-features", type=int)
    model.add_argument("--corpus-clusters", type=int)
    model.add_argument("--corpus-epochs", type=int)
    model.add_argument("--wknn-k", dest="wknn.k", type=int)
    model.add_argument("--wknn-weighting", dest="wknn.weighting",
                       choices=("uniform", "distance"))
    model.add_argument("--tau", dest="decision.tau", type=float)
    model.add_argument("--freeze-centroids", dest="decision.update_centroids",
                       action="store_false", default=None,
                       help="do not move known centroids on acceptance")
    model.add_argument("--freeze-members", dest="decision.grow_members",
                       action="store_false", default=None,
                       help="evaluate the rule against original members only")
    model.add_argument("--no-grow-reference", dest="decision.grow_reference",
                       action="store_false", default=None,
                       help="do not append accepted samples to the classifier")
    model.add_argument("--online-algorithm", choices=ONLINE_ALGORITHMS)
    model.add_argument("--online-clusters", type=int)
    model.add_argument("--bsas-theta", type=float)
    model.add_argument("--repeats", type=int)
    model.add_argument("--seed", type=int)
    model.add_argument("--no-silhouette", dest="compute_silhouette",
                       action="store_false", default=None)
    model.add_argument("--no-known-metrics", dest="compute_known_metrics",
                       action="store_false", default=None)

    out = parser.add_argument_group("output")
    out.add_argument("-o", "--output-dir")
    if timings:
        out.add_argument("--emit-timings", action="store_true",
                         help="also write wall-clock timing files (not byte-reproducible)")


def build_config(args: argparse.Namespace) -> PipelineConfig:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(base, dict):
        raise UsageError("config file must hold a JSON object")
    for key in ("wknn", "decision"):
        if not isinstance(base.get(key, {}), dict):
            raise UsageError(f"config field {key!r} must be a JSON object")
    # Each flag's dest names its config field, or "section.field" for the
    # wknn and decision sections; a flag that was not given is None.
    merged = dict(base)
    for dest, value in vars(args).items():
        section, _, name = dest.rpartition(".")
        if value is not None and (section or name) in CONFIG_FIELDS:
            if section:
                merged[section] = {**merged.get(section, {}), name: value}
            else:
                merged[name] = value
    try:
        config = PipelineConfig.from_dict(merged)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return config


def _load(config: PipelineConfig) -> tuple[Dataset, Dataset]:
    try:
        return load_inputs(config)
    except (DataFormatError, OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def _load_for_model(config: PipelineConfig) -> tuple[Dataset, Dataset]:
    """Load the inputs and check the config's data-shape fields against them."""
    corpus, stream = _load(config)
    try:
        check_data_shape(config, corpus)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return corpus, stream


def _outdir(config: PipelineConfig) -> Path:
    return Path(config.output_dir or DEFAULT_OUTPUT_DIR)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_run(args) -> int:
    config = build_config(args)
    report = run_pipeline(config, data=_load_for_model(config))
    outdir = _outdir(config)
    write_run_outputs(outdir, report, emit_timings=args.emit_timings)
    agg = report.aggregates
    print(f"repeats: {len(report.repeats)}  stream: {report.repeats[0].stream_size}")
    for name in ("new_route_fraction", "purity_new", "silhouette_new",
                 "purity_known", "silhouette_known"):
        stats = agg.get(name)
        if stats is None:
            print(f"{name}: n/a")
        else:
            print(f"{name}: mean {stats['mean']:.4f} std {stats['std']:.4f}")
    print(f"outputs in {outdir}")
    return 0


def _grid_axes(args) -> tuple[list[int], list[str]]:
    counts = parse_int_list(args.cluster_counts)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    try:
        return grid_axes(counts, algorithms)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _print_summary(summary, prefix: str = "") -> None:
    for row in summary:
        print(
            f"{prefix}{row.algorithm} k={row.clusters}: purity {_fmt(row.purity_mean)} "
            f"silhouette {_fmt(row.silhouette_mean)}"
        )


def _report_failed_cells(cells) -> None:
    for cell in cells:
        if cell.error is not None:
            print(
                f"cell {cell.algorithm} k={cell.clusters} repeat {cell.repeat} failed: "
                f"{cell.error}",
                file=sys.stderr,
            )


def cmd_grid(args) -> int:
    config = build_config(args)
    counts, algorithms = _grid_axes(args)
    grid = run_grid(config, counts, algorithms, data=_load_for_model(config))
    outdir = _outdir(config)
    write_grid_outputs(outdir, grid, emit_timings=args.emit_timings)
    _report_failed_cells(grid.cells)
    _print_summary(grid.summary)
    print(f"outputs in {outdir}")
    return 0


def cmd_baseline(args) -> int:
    config = build_config(args)
    counts, algorithms = _grid_axes(args)
    baseline = run_reference_baseline(config, counts, algorithms, data=_load_for_model(config))
    outdir = _outdir(config)
    write_baseline_results(outdir / "baseline_results.csv", baseline.cells)
    write_baseline_metrics(outdir / "baseline_metrics.csv", baseline.summary)
    _report_failed_cells(baseline.cells)
    _print_summary(baseline.summary, prefix="baseline ")
    print(f"outputs in {outdir}")
    return 0


def cmd_sweep_tau(args) -> int:
    config = build_config(args)
    taus = parse_float_list(args.taus)
    sweep = run_tau_sweep(config, taus, data=_load_for_model(config))
    outdir = _outdir(config)
    write_tau_sweep(outdir / "tau_sweep.csv", sweep)
    for point in sweep:
        print(f"tau={point.tau:g}: {100.0 * point.new_fraction:.1f}% routed new")
    print(f"outputs in {outdir}")
    return 0


def _selection_specs(args, config: PipelineConfig) -> list[ClustererSpec]:
    specs: list[ClustererSpec] = []
    for name in (a.strip() for a in args.clusterers.split(",")):
        if name == "kmeans":
            specs.append(ClustererSpec("kmeans", "kmeans", {"k": config.corpus_clusters}))
        elif name == "som":
            specs.append(
                ClustererSpec(
                    "som", "som",
                    {"k_units": config.corpus_clusters, "epochs": config.corpus_epochs},
                )
            )
        elif name == "dbscan":
            eps, min_samples = args.dbscan_eps, args.dbscan_min_samples
            if not 0 < eps < math.inf:
                raise UsageError(f"--dbscan-eps must be finite and positive, got {eps}")
            if min_samples < 1:
                raise UsageError(f"--dbscan-min-samples must be >= 1, got {min_samples}")
            specs.append(
                ClustererSpec("dbscan", "dbscan", {"eps": eps, "min_samples": min_samples})
            )
        elif name:
            raise UsageError(f"unknown clusterer {name!r}")
    if not specs:
        raise UsageError("no clusterers selected")
    return specs


def cmd_select_features(args) -> int:
    config = build_config(args)
    candidates = parse_int_list(args.candidates)
    specs = _selection_specs(args, config)
    corpus, _ = _load(config)
    limit = min(corpus.dim, len(corpus))
    if not all(1 <= c <= limit for c in candidates):
        raise UsageError(
            f"--candidates must lie in [1, min(dim={corpus.dim}, corpus size={len(corpus)})], "
            f"got {candidates}"
        )
    scaled = apply_scaler(fit_scaler(corpus.features), corpus.features)
    try:
        (best_count, best_name), table = select_feature_count(
            scaled, candidates, specs, seed=config.seed
        )
    except ValueError as exc:  # every cell failed: the clusterers chosen cannot score this corpus
        raise UsageError(str(exc)) from None
    outdir = _outdir(config)
    write_feature_selection_table(outdir / "feature_count_silhouette.csv", table)
    write_json(
        outdir / "feature_selection.json",
        {
            "best_n_features": best_count,
            "best_clusterer": best_name,
            "table": [
                {"n_features": c.n_features, "clusterer": c.clusterer,
                 "mean_silhouette": c.mean_silhouette}
                for c in table
            ],
        },
    )
    print(f"best: {best_count} features via {best_name}")
    print(f"outputs in {outdir}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="famstream", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline with repeats", parents=[])
    _add_common(p_run, timings=True)
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="online-algorithm x cluster-count grid")
    _add_common(p_grid, timings=True)
    p_grid.add_argument("--cluster-counts", default=DEFAULT_CLUSTER_COUNTS)
    p_grid.add_argument("--algorithms", default=",".join(ONLINE_ALGORITHMS))
    p_grid.set_defaults(func=cmd_grid)

    p_base = sub.add_parser("baseline", help="direct online clustering of corpus+stream")
    _add_common(p_base)
    p_base.add_argument("--cluster-counts", default=DEFAULT_CLUSTER_COUNTS)
    p_base.add_argument("--algorithms", default=",".join(ONLINE_ALGORITHMS))
    p_base.set_defaults(func=cmd_baseline)

    p_tau = sub.add_parser("sweep-tau", help="new-route fraction per tau")
    _add_common(p_tau)
    p_tau.add_argument("--taus", default=DEFAULT_TAUS)
    p_tau.set_defaults(func=cmd_sweep_tau)

    p_sel = sub.add_parser("select-features", help="silhouette-driven feature count")
    _add_common(p_sel)
    p_sel.add_argument("--candidates", default=DEFAULT_FEATURE_CANDIDATES)
    p_sel.add_argument("--clusterers", default="kmeans,som,dbscan")
    p_sel.add_argument("--dbscan-eps", type=float, default=5.0)
    p_sel.add_argument("--dbscan-min-samples", type=int, default=10)
    p_sel.set_defaults(func=cmd_select_features)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
