"""End-to-end orchestration: preprocess, cluster the corpus, route the
stream, online-cluster the new-family route, and score the result.

run_pipeline, run_grid, run_reference_baseline and run_tau_sweep share one
core: fit_projection fits standard score and PCA on the corpus's feature
matrix and projects the corpus and the stream once per call, each as
one matrix through preprocess.transform_pca, whose rows do not depend on
the rows beside them; _routed_repeats, the one repeat loop, clusters the
projected corpus with a batch SOM and routes each projected stream row in
chronological order (WKNN proposes a known cluster, the expansion rule
accepts it or queues the sample for the online clusterer); _cluster_cell
runs one cell's online clusterer over one population, and
_score_population scores every labeling of a population (purity each, and
all silhouettes from one distance pass); _grid_cells runs a population's
cells and then scores them together; summarize aggregates grid and baseline
cells. run_pipeline is a grid with one cell plus known-population metrics
and the first repeat's artifacts; run_reference_baseline feeds the unrouted
projected corpus+stream to the same cells, all scored from one distance
pass; run_tau_sweep replays the projected stream against repeat 0's known
model once per tau.

Routing never reads the online state, so clustering the new route after the
routing pass is byte-identical to interleaving them sample by sample.

Seeds: repeat r of a run with master seed s uses base = s + 1000 * r; the
corpus clustering consumes base and the online stage consumes base + 1.
Every grid cell can therefore be reproduced in isolation with run_pipeline:
a labeling scores the same bits alone or beside others. Wall-clock timings
are kept apart from metric outputs so that result files are
byte-reproducible for a fixed master seed.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .batch import KnownClusters, som_batch
from .data import Dataset, Route, RouteAssignment, load_dataset, parse_year_month, split_by_time
from .decision import DecisionParams, TauSweepPoint, route_sample, sweep_tau
from .metrics import mean_silhouette, purity
from .online import StreamingClusterer, final_assign
from .preprocess import PCAModel, ScalerModel, apply_scaler, fit_pca, fit_scaler, transform_pca
from .wknn import ReferenceSet, WKNNParams

ONLINE_ALGORITHMS = ("okm", "som", "bsas")
TIMING_STAGES = ("preprocess", "corpus_clustering", "wknn_total", "online_total", "total")


@dataclass
class PipelineConfig:
    """Everything one run needs; mirrors the CLI flags in snake_case."""

    corpus_path: str | None = None
    stream_path: str | None = None
    data_path: str | None = None        # single file, split at `cutoff`
    cutoff: str | None = None
    fmt: str | None = None
    n_features: int = 40
    corpus_clusters: int = 4
    corpus_epochs: int = 5
    wknn: WKNNParams = field(default_factory=WKNNParams)
    decision: DecisionParams = field(default_factory=DecisionParams)
    online_algorithm: str = "okm"
    online_clusters: int = 4            # BSAS reads this as the cap q
    bsas_theta: float | None = None
    repeats: int = 20
    seed: int = 0
    output_dir: str | None = None
    compute_known_metrics: bool = True
    compute_silhouette: bool = True

    def validate(self, require_paths: bool = True) -> None:
        if self.online_algorithm not in ONLINE_ALGORITHMS:
            raise ValueError(f"online_algorithm must be one of {ONLINE_ALGORITHMS}")
        for name, low in (("n_features", 1), ("corpus_clusters", 1), ("corpus_epochs", 0),
                          ("online_clusters", 1), ("repeats", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        theta = self.bsas_theta
        if theta is not None and (isinstance(theta, bool) or not isinstance(theta, numbers.Real)
                                  or not 0 < theta < math.inf):
            raise ValueError(f"bsas_theta must be finite and positive, got {theta!r}")
        for name in ("compute_known_metrics", "compute_silhouette"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("corpus_path", "stream_path", "data_path", "cutoff", "fmt", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null, got {value!r}")
        if self.cutoff is not None:
            try:
                parse_year_month(self.cutoff)
            except ValueError as exc:
                raise ValueError(f"cutoff: {exc}") from None
        if self.fmt not in (None, "csv", "jsonl"):
            raise ValueError(f"fmt must be 'csv', 'jsonl' or null, got {self.fmt!r}")
        if require_paths:
            has_pair = self.corpus_path is not None and self.stream_path is not None
            has_split = self.data_path is not None and self.cutoff is not None
            if not (has_pair or has_split):
                raise ValueError(
                    "need either corpus_path and stream_path, or data_path and cutoff"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        wknn = d.pop("wknn", None)
        decision = d.pop("decision", None)
        unknown = set(d) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        if wknn is not None:
            cfg.wknn = WKNNParams(**wknn)
        if decision is not None:
            cfg.decision = DecisionParams(**decision)
        return cfg


def repeat_seed(master: int, repeat: int) -> int:
    return master + 1000 * repeat


def load_inputs(config: PipelineConfig) -> tuple[Dataset, Dataset]:
    """Load (corpus, stream), splitting a single file at the cutoff if needed.

    A separately supplied stream file is re-sorted chronologically when every
    sample carries first_seen; otherwise file order is trusted as arrival
    order. Raises ValueError naming the ids (up to 10) that a separate stream
    file shares with the corpus.
    """
    config.validate()
    if config.data_path is not None and config.cutoff is not None:
        data = load_dataset(config.data_path, config.fmt)
        return split_by_time(data, config.cutoff)
    corpus = load_dataset(config.corpus_path, config.fmt)
    stream = load_dataset(config.stream_path, config.fmt)
    shared = sorted(set(corpus.ids).intersection(stream.ids))
    if shared:
        raise ValueError(f"corpus and stream share {len(shared)} sample id(s): {shared[:10]}")
    if None not in stream.first_seen:
        stream = stream.take(sorted(range(len(stream)), key=stream.first_seen.__getitem__))
    return corpus, stream


@dataclass
class RoutingPass:
    """Everything the routing stage produced for one repeat."""

    known: KnownClusters
    assignments: list[RouteAssignment]
    new_ids: list[str]
    new_points: np.ndarray
    stream_size: int
    timings: dict[str, float]

    @property
    def new_fraction(self) -> float:
        return len(self.new_ids) / self.stream_size if self.stream_size else 0.0


@dataclass
class Projection:
    """Scaler and PCA fit on the corpus; the corpus and the stream projected
    once, with their sample ids. Everything past preprocessing reads this, so
    the raw feature matrices can be freed once it exists."""

    scaler: ScalerModel
    pca: PCAModel
    corpus_ids: list[str]
    corpus_z: np.ndarray
    stream_ids: list[str]
    stream_z: np.ndarray
    seconds: float


def fit_projection(corpus: Dataset, stream: Dataset, n_features: int) -> Projection:
    """Fit scaler+PCA on the corpus and project the corpus and the stream."""
    t0 = time.perf_counter()
    scaler = fit_scaler(corpus.features)
    corpus_scaled = apply_scaler(scaler, corpus.features)
    pca = fit_pca(corpus_scaled, n_features)
    corpus_z = transform_pca(pca, corpus_scaled)
    stream_z = transform_pca(pca, apply_scaler(scaler, stream.features))
    return Projection(scaler, pca, corpus.ids, corpus_z, stream.ids, stream_z,
                      time.perf_counter() - t0)


def build_known_model(
    ids: list[str], corpus_z: np.ndarray, config: PipelineConfig, seed: int
) -> tuple[KnownClusters, ReferenceSet]:
    """Cluster the projected corpus, rows labeled by ids, into known families;
    label a reference set."""
    labels = som_batch(
        corpus_z, k_units=config.corpus_clusters, epochs=config.corpus_epochs, seed=seed
    )
    known = KnownClusters.from_labels(corpus_z, labels, ids)
    # a list, not the array: ReferenceSet evaluates `labels or []`
    return known, ReferenceSet(corpus_z, labels.tolist())


def run_routing(proj: Projection, config: PipelineConfig, seed: int) -> RoutingPass:
    """Cluster the projected corpus and route every projected stream row."""
    t0 = time.perf_counter()
    known, ref = build_known_model(proj.corpus_ids, proj.corpus_z, config, seed)
    t1 = time.perf_counter()
    assignments = [
        route_sample(known, ref, config.wknn, config.decision, z, sid)
        for sid, z in zip(proj.stream_ids, proj.stream_z, strict=True)
    ]
    t2 = time.perf_counter()
    new = [i for i, a in enumerate(assignments) if a.route is Route.NEW]
    return RoutingPass(
        known=known,
        assignments=assignments,
        new_ids=[assignments[i].sample_id for i in new],
        new_points=proj.stream_z[new],
        stream_size=len(proj.stream_ids),
        timings={"corpus_clustering": t1 - t0, "wknn_total": t2 - t1},
    )


@dataclass
class RepeatResult:
    """Metrics of one pipeline repeat; timing lives in `timings` only."""

    repeat: int
    seed: int
    stream_size: int
    known_count: int
    new_count: int
    new_route_fraction: float
    purity_new: float | None
    silhouette_new: float | None
    purity_known: float | None
    silhouette_known: float | None
    online_clusters_used: int
    skipped: list[str]
    timings: dict[str, float]

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["timings"]
        return d


METRIC_FIELDS = (
    "new_route_fraction",
    "purity_new",
    "silhouette_new",
    "purity_known",
    "silhouette_known",
)


@dataclass
class RunReport:
    """Per-repeat results plus mean/std aggregates."""

    config: dict
    repeats: list[RepeatResult]
    aggregates: dict[str, dict[str, float]]

    # first repeat's artifacts, for serialization
    first_assignments: list[RouteAssignment] = field(default_factory=list)
    first_models: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "repeats": [r.to_dict() for r in self.repeats],
            "aggregates": self.aggregates,
        }

    def timing_dict(self) -> dict:
        rows = [{"repeat": r.repeat, **r.timings} for r in self.repeats]
        agg = {}
        for stage in TIMING_STAGES:
            values = [r.timings[stage] for r in self.repeats if stage in r.timings]
            if values:
                agg[stage] = {"mean": float(np.mean(values)), "std": float(np.std(values))}
        return {"repeats": rows, "aggregates": agg}


def aggregate(values: list[float | None]) -> dict[str, float] | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return {"mean": float(np.mean(present)), "std": float(np.std(present))}


def _family_labels(*datasets: Dataset) -> dict[str, str]:
    labels: dict[str, str] = {}
    for ds in datasets:
        labels.update((sid, fam) for sid, fam in zip(ds.ids, ds.families) if fam is not None)
    return labels


def _score_population(
    ids: list[str],
    points: np.ndarray,
    labelings: list,
    labels: dict[str, str],
    compute_silhouette: bool,
    tag: str,
) -> list[tuple[float | None, float | None, list[str]]]:
    """(purity, silhouette, skip notes) of each labeling of one population;
    all silhouettes come from one mean_silhouette call."""
    if not ids:
        return [(None, None, [f"{tag}: empty population"]) for _ in labelings]
    has_truth = all(sid in labels for sid in ids)
    skipped = [[] if has_truth else [f"{tag}: ground-truth labels missing"] for _ in labelings]
    pending: list[int] = []
    for i, cluster_ids in enumerate(labelings):
        if not compute_silhouette:
            skipped[i].append(f"{tag}: silhouette disabled")
        elif len(set(cluster_ids)) < 2:
            skipped[i].append(f"{tag}: fewer than 2 clusters")
        else:
            pending.append(i)
    sils = {}
    if pending:
        sils = dict(zip(pending, mean_silhouette(points, [labelings[i] for i in pending])))
    return [
        (purity(dict(zip(ids, cluster_ids)), labels).purity if has_truth else None,
         sils.get(i), skipped[i])
        for i, cluster_ids in enumerate(labelings)
    ]


def _known_population(known: KnownClusters) -> tuple[list[str], np.ndarray, list[int]]:
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    cluster_ids: list[int] = []
    for cluster in known.clusters:
        ids.extend(cluster.labels)
        blocks.append(cluster.points)
        cluster_ids.extend([cluster.id] * len(cluster))
    return ids, np.vstack(blocks), cluster_ids


@dataclass
class CellRun:
    """The online stage of one cell: one online clusterer over one population."""

    state: object
    emitted: list[int]
    assigned: np.ndarray
    seconds: float


def _cluster_cell(
    points: np.ndarray,
    algorithm: str,
    n_clusters: int,
    base: int,
    config: PipelineConfig,
) -> CellRun:
    """Stream a population through one online clusterer seeded base + 1 and
    assign every point to its final centroid.

    state is None when no points arrived (except SOM, which always has its
    initial map).
    """
    t0 = time.perf_counter()
    clusterer = StreamingClusterer(
        algorithm,
        n_clusters,
        dim=points.shape[1],
        seed=base + 1,
        expected_stream_length=len(points),
        bsas_theta=config.bsas_theta,
    )
    for row in points:
        clusterer.push(row)
    state = clusterer.finalize()
    assigned = (
        final_assign(state, points)
        if state is not None and len(points)
        else np.zeros(0, dtype=np.intp)
    )
    return CellRun(state, list(clusterer.emitted), assigned, time.perf_counter() - t0)


def check_data_shape(config: PipelineConfig, corpus: Dataset) -> None:
    """Reject a config the loaded corpus cannot support: an empty corpus,
    more PCA features than min(dimension, corpus size), or a WKNN k above
    the corpus size (the reference set the first sample is classified on)."""
    n = len(corpus)
    if n == 0:
        raise ValueError("corpus is empty")
    if config.n_features > min(corpus.dim, n):
        raise ValueError(
            f"n_features={config.n_features} exceeds min(dim={corpus.dim}, corpus size={n})"
        )
    if config.wknn.k > n:
        raise ValueError(f"wknn k={config.wknn.k} exceeds corpus size {n}")


def _prepare(
    config: PipelineConfig, data: tuple[Dataset, Dataset] | None
) -> tuple[dict[str, str], Projection]:
    """Validate and load the inputs, then fit the projection once per call.

    Returns the family labels and the projection, which is all the callers
    read afterwards: a caller that drops its `data` reference lets the raw
    feature matrices be freed before routing starts."""
    config.validate(require_paths=data is None)
    corpus, stream = data if data is not None else load_inputs(config)
    check_data_shape(config, corpus)
    return _family_labels(corpus, stream), fit_projection(corpus, stream, config.n_features)


def _routed_repeats(
    proj: Projection, config: PipelineConfig
) -> Iterator[tuple[int, int, RoutingPass, float, float]]:
    """Route the projected stream once per repeat; yields (repeat, base seed,
    routing, perf_counter at the repeat's start, preprocessing seconds:
    proj.seconds in repeat 0, else 0)."""
    for r in range(config.repeats):
        base = repeat_seed(config.seed, r)
        started = time.perf_counter()
        routing = run_routing(proj, config, seed=base)
        yield r, base, routing, started, proj.seconds if r == 0 else 0.0


def run_pipeline(config: PipelineConfig, data: tuple[Dataset, Dataset] | None = None) -> RunReport:
    """Run the full model for config.repeats repeats and aggregate.

    Each repeat is the grid cell (config.online_algorithm,
    config.online_clusters), plus known-population metrics; the first
    repeat also keeps its assignments and models. Unlike a grid cell, a
    failing online stage raises. The one-time preprocessing (the fit and
    the projection of corpus and stream) is timed into repeat 0's
    `preprocess` and `total`.
    """
    labels, proj = _prepare(config, data)
    del data
    repeats: list[RepeatResult] = []
    first_assignments: list[RouteAssignment] = []
    first_models: dict = {}
    for r, base, routing, started, preprocess in _routed_repeats(proj, config):
        cell = _cluster_cell(
            routing.new_points, config.online_algorithm, config.online_clusters, base, config
        )
        ((pur_new, sil_new, skipped),) = _score_population(
            routing.new_ids, routing.new_points, [cell.assigned], labels,
            config.compute_silhouette, "new",
        )
        if config.compute_known_metrics:
            k_ids, k_points, k_clusters = _known_population(routing.known)
            ((pur_known, sil_known, known_skipped),) = _score_population(
                k_ids, k_points, [k_clusters], labels, config.compute_silhouette, "known"
            )
            skipped += known_skipped
        else:
            pur_known = sil_known = None
            skipped.append("known: metrics disabled")
        repeats.append(
            RepeatResult(
                repeat=r,
                seed=base,
                stream_size=routing.stream_size,
                known_count=routing.stream_size - len(routing.new_ids),
                new_count=len(routing.new_ids),
                new_route_fraction=routing.new_fraction,
                purity_new=pur_new,
                silhouette_new=sil_new,
                purity_known=pur_known,
                silhouette_known=sil_known,
                online_clusters_used=len(set(int(c) for c in cell.assigned)),
                skipped=skipped,
                timings={
                    "preprocess": preprocess,
                    **routing.timings,
                    "online_total": cell.seconds,
                    "total": preprocess + time.perf_counter() - started,
                },
            )
        )
        if r == 0:
            first_assignments = _emission_assignments(routing, cell.emitted)
            first_models = {
                "scaler": proj.scaler.to_dict(),
                "pca": proj.pca.to_dict(),
                "known_clusters": routing.known.to_dict(),
                "online_state": cell.state.to_dict() if cell.state is not None else None,
            }
    return RunReport(
        config=config.to_dict(),
        repeats=repeats,
        aggregates={
            name: aggregate([getattr(r, name) for r in repeats]) for name in METRIC_FIELDS
        },
        first_assignments=first_assignments,
        first_models=first_models,
    )


def _emission_assignments(
    routing: RoutingPass, emitted: list[int]
) -> list[RouteAssignment]:
    """Rewrite New rows with the online cluster index assigned at push time."""
    online_of = dict(zip(routing.new_ids, emitted))
    out: list[RouteAssignment] = []
    for a in routing.assignments:
        if a.route is Route.NEW and a.sample_id in online_of:
            out.append(RouteAssignment(a.sample_id, a.route, int(online_of[a.sample_id])))
        else:
            out.append(a)
    return out


@dataclass(frozen=True)
class GridCell:
    algorithm: str
    clusters: int
    repeat: int
    seed: int
    n_new: int
    purity: float | None
    silhouette: float | None
    online_seconds: float
    error: str | None = None            # why the cell failed; not written to result files


@dataclass(frozen=True)
class GridSummaryRow:
    algorithm: str
    clusters: int
    purity_mean: float | None
    purity_std: float | None
    silhouette_mean: float | None
    silhouette_std: float | None


@dataclass
class GridResult:
    cells: list[GridCell]
    summary: list[GridSummaryRow]


def grid_axes(cluster_counts, algorithms) -> tuple[list[int], list[str]]:
    """Validate a grid's cluster counts and algorithms before any cell runs."""
    counts = [int(c) for c in cluster_counts]
    algos = list(algorithms)
    if not counts or not algos:
        raise ValueError("cluster_counts and algorithms must be non-empty")
    for count in counts:
        if count < 1:
            raise ValueError(f"cluster counts must be >= 1, got {count}")
    for algo in algos:
        if algo not in ONLINE_ALGORITHMS:
            raise ValueError(f"unknown online algorithm {algo!r}")
    return counts, algos


def _grid_cells(
    ids: list[str],
    points: np.ndarray,
    axes: list[tuple[str, int, int, int]],
    config: PipelineConfig,
    labels: dict[str, str],
) -> list[GridCell]:
    """Grid or baseline cells over one population, one per (algorithm,
    count, repeat, base seed) in `axes` order: every online stage first, then
    one scoring step for them all.

    A ValueError from a cell's online stage leaves that cell with empty
    metrics and zero seconds; one from the shared scoring does so for every
    cell. The cell keeps the error message.
    """
    runs: list[tuple[np.ndarray, float] | str] = []   # (assignments, seconds) or error
    for algo, count, _, base in axes:
        try:
            run = _cluster_cell(points, algo, count, base, config)
            runs.append((run.assigned, run.seconds))
        except ValueError as exc:
            runs.append(str(exc))
    try:
        scores = iter(_score_population(
            ids, points, [run[0] for run in runs if not isinstance(run, str)], labels,
            config.compute_silhouette, "new",
        ))
    except ValueError as exc:
        runs = [run if isinstance(run, str) else str(exc) for run in runs]
    cells: list[GridCell] = []
    for (algo, count, repeat, base), run in zip(axes, runs):
        if isinstance(run, str):
            cells.append(GridCell(algo, count, repeat, base, len(ids), None, None, 0.0, run))
        else:
            pur, sil, _ = next(scores)
            cells.append(GridCell(algo, count, repeat, base, len(ids), pur, sil, run[1]))
    return cells


def summarize(cells: list[GridCell], counts: list[int], algos: list[str]) -> list[GridSummaryRow]:
    """Mean/std of purity and silhouette over the repeats of each
    (algorithm, cluster count), in algorithm-major order."""
    summary: list[GridSummaryRow] = []
    for algo in algos:
        for count in counts:
            group = [c for c in cells if c.algorithm == algo and c.clusters == count]
            pur = aggregate([c.purity for c in group])
            sil = aggregate([c.silhouette for c in group])
            summary.append(
                GridSummaryRow(
                    algorithm=algo,
                    clusters=count,
                    purity_mean=None if pur is None else pur["mean"],
                    purity_std=None if pur is None else pur["std"],
                    silhouette_mean=None if sil is None else sil["mean"],
                    silhouette_std=None if sil is None else sil["std"],
                )
            )
    return summary


def run_grid(
    config: PipelineConfig,
    cluster_counts,
    algorithms,
    data: tuple[Dataset, Dataset] | None = None,
) -> GridResult:
    """Sweep (algorithm, cluster count) over config.repeats repeats.

    Routing does not depend on the online algorithm, so each repeat routes
    once and every grid cell consumes the same new-route population; the
    grid isolates online-clusterer variance. Cells are ordered by (repeat,
    algorithm, count). A repeat's cells are scored from one silhouette pass
    over its new-route points. Cell failures are recorded as empty metrics
    with their error message and do not stop the grid.
    """
    counts, algos = grid_axes(cluster_counts, algorithms)
    labels, proj = _prepare(config, data)
    del data
    cells: list[GridCell] = []
    for r, base, routing, *_ in _routed_repeats(proj, config):
        axes = [(algo, count, r, base) for algo in algos for count in counts]
        cells += _grid_cells(routing.new_ids, routing.new_points, axes, config, labels)
    return GridResult(cells=cells, summary=summarize(cells, counts, algos))


def run_reference_baseline(
    config: PipelineConfig,
    cluster_counts,
    algorithms,
    data: tuple[Dataset, Dataset] | None = None,
) -> GridResult:
    """Direct online clustering of corpus-then-stream, for comparison.

    Preprocessing stays identical to the proposed model (fit on the corpus);
    the WKNN classifier and the routing rule are bypassed, so the corpus
    points and then the chronological stream feed every (algorithm, cluster
    count) cell directly, for config.repeats repeats each. Metrics cover the
    whole population, and every cell is scored from one silhouette pass over
    it. Cells are ordered by (algorithm, count, repeat) and follow the
    grid's failure policy (_grid_cells), and the sweep goes on.
    """
    counts, algos = grid_axes(cluster_counts, algorithms)
    labels, proj = _prepare(config, data)
    del data
    ids = proj.corpus_ids + proj.stream_ids
    points = np.vstack([proj.corpus_z, proj.stream_z])
    axes = [
        (algo, count, r, repeat_seed(config.seed, r))
        for algo in algos
        for count in counts
        for r in range(config.repeats)
    ]
    cells = _grid_cells(ids, points, axes, config, labels)
    return GridResult(cells=cells, summary=summarize(cells, counts, algos))


def run_tau_sweep(
    config: PipelineConfig, taus, data: tuple[Dataset, Dataset] | None = None
) -> list[TauSweepPoint]:
    """New-route fraction of the stream per tau, each from the pristine known
    model of repeat 0 (seed repeat_seed(config.seed, 0))."""
    _, proj = _prepare(config, data)
    del data
    known, ref = build_known_model(
        proj.corpus_ids, proj.corpus_z, config, repeat_seed(config.seed, 0)
    )
    return sweep_tau(
        known, ref, config.wknn, proj.stream_ids, proj.stream_z, taus, dp=config.decision
    )
