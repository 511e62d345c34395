"""End-to-end orchestration: preprocess, cluster the corpus, route the
stream, online-cluster the new-family route, and score the result.

run_pipeline, run_grid and run_reference_baseline share one core:
fit_projection fits standard score and PCA on the corpus once per call,
projects the corpus and rejects non-finite input; _routed_repeats, the one
repeat loop, clusters the projected corpus with a batch SOM and routes each
stream sample in chronological order (WKNN proposes a known cluster, the
expansion rule accepts it or queues the sample for the online clusterer);
_cluster_cell online-clusters one population and scores purity/silhouette;
summarize aggregates grid and baseline cells. run_pipeline is a grid with
one cell plus known-population metrics and the first repeat's artifacts;
run_reference_baseline feeds the unrouted corpus+stream to the same cells.

Routing never reads the online state, so clustering the new route after the
routing pass is byte-identical to interleaving them sample by sample.

Seeds: repeat r of a run with master seed s uses base = s + 1000 * r; the
corpus clustering consumes base and the online stage consumes base + 1.
Every grid cell can therefore be reproduced in isolation with run_pipeline.
Wall-clock timings are kept apart from metric outputs so that result files
are byte-reproducible for a fixed master seed.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .batch import KnownClusters, som_batch
from .data import Dataset, Route, RouteAssignment, Sample, load_dataset, split_by_time
from .decision import DecisionParams, route_sample
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
        for name in ("n_features", "corpus_clusters", "online_clusters", "repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.corpus_epochs < 0:
            raise ValueError("corpus_epochs must be >= 0")
        if self.bsas_theta is not None and self.bsas_theta <= 0:
            raise ValueError("bsas_theta must be positive")
        if require_paths:
            has_pair = self.corpus_path is not None and self.stream_path is not None
            has_split = self.data_path is not None and self.cutoff is not None
            if not (has_pair or has_split):
                raise ValueError(
                    "need either corpus_path and stream_path, or data_path and cutoff"
                )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["wknn"] = {"k": self.wknn.k, "weighting": self.wknn.weighting}
        d["decision"] = asdict(self.decision)
        return d

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
    order.
    """
    config.validate()
    if config.data_path is not None and config.cutoff is not None:
        data = load_dataset(config.data_path, config.fmt)
        return split_by_time(data, config.cutoff)
    corpus = load_dataset(config.corpus_path, config.fmt)
    stream = load_dataset(config.stream_path, config.fmt)
    if stream.samples and all(s.first_seen is not None for s in stream.samples):
        ordered = sorted(stream.samples, key=lambda s: s.first_seen)
        stream = Dataset.from_samples(ordered, dim=stream.dim)
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
    """Scaler and PCA fit on the corpus, and the corpus projected once."""

    scaler: ScalerModel
    pca: PCAModel
    corpus_z: np.ndarray
    seconds: float


def _reject_nonfinite(matrix: np.ndarray, data: Dataset, role: str) -> None:
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{role} sample {data.samples[bad[0]].id!r} has a non-finite feature")


def fit_projection(corpus: Dataset, stream: Dataset, n_features: int) -> Projection:
    """Fit scaler+PCA on the corpus and project it.

    Raises ValueError naming the first corpus or stream sample with a
    non-finite feature.
    """
    t0 = time.perf_counter()
    corpus_x = corpus.matrix()
    _reject_nonfinite(corpus_x, corpus, "corpus")
    _reject_nonfinite(stream.matrix(), stream, "stream")
    scaler = fit_scaler(corpus_x)
    corpus_scaled = apply_scaler(scaler, corpus_x)
    pca = fit_pca(corpus_scaled, n_features)
    corpus_z = transform_pca(pca, corpus_scaled)
    return Projection(scaler, pca, corpus_z, time.perf_counter() - t0)


def build_known_model(
    corpus: Dataset, corpus_z: np.ndarray, config: PipelineConfig, seed: int
) -> tuple[KnownClusters, ReferenceSet]:
    """Cluster the projected corpus into known families; label a reference set."""
    known = som_batch(
        corpus_z,
        k_units=config.corpus_clusters,
        epochs=config.corpus_epochs,
        seed=seed,
        ids=corpus.ids(),
    )
    cluster_of = known.assignments()
    ref = ReferenceSet(
        points=corpus_z,
        labels=[cluster_of[sid] for sid in corpus.ids()],
    )
    return known, ref


def transform_stream(
    scaler: ScalerModel, pca: PCAModel, stream: Dataset
) -> Dataset:
    """Project stream samples into model space, keeping ids and metadata."""
    out = []
    for s in stream.samples:
        z = transform_pca(pca, apply_scaler(scaler, s.features))
        z.setflags(write=False)
        out.append(Sample(id=s.id, features=z, family=s.family, first_seen=s.first_seen))
    return Dataset.from_samples(out, dim=pca.n_components)


def run_routing(
    corpus: Dataset, stream: Dataset, proj: Projection, config: PipelineConfig, seed: int
) -> RoutingPass:
    """Cluster the projected corpus and route every stream sample."""
    t0 = time.perf_counter()
    known, ref = build_known_model(corpus, proj.corpus_z, config, seed)
    t1 = time.perf_counter()

    assignments: list[RouteAssignment] = []
    new_ids: list[str] = []
    new_rows: list[np.ndarray] = []
    for sample in stream.samples:
        z = transform_pca(proj.pca, apply_scaler(proj.scaler, sample.features))
        assignment = route_sample(known, ref, config.wknn, config.decision, z, sample.id)
        assignments.append(assignment)
        if assignment.route is Route.NEW:
            new_ids.append(sample.id)
            new_rows.append(z)
    t2 = time.perf_counter()

    new_points = (
        np.stack(new_rows) if new_rows else np.empty((0, config.n_features), dtype=np.float64)
    )
    return RoutingPass(
        known=known,
        assignments=assignments,
        new_ids=new_ids,
        new_points=new_points,
        stream_size=len(stream.samples),
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
        return {
            "repeat": self.repeat,
            "seed": self.seed,
            "stream_size": self.stream_size,
            "known_count": self.known_count,
            "new_count": self.new_count,
            "new_route_fraction": self.new_route_fraction,
            "purity_new": self.purity_new,
            "silhouette_new": self.silhouette_new,
            "purity_known": self.purity_known,
            "silhouette_known": self.silhouette_known,
            "online_clusters_used": self.online_clusters_used,
            "skipped": list(self.skipped),
        }


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
        for s in ds.samples:
            if s.family is not None:
                labels[s.id] = s.family
    return labels


def _score_population(
    ids: list[str],
    points: np.ndarray,
    cluster_ids: list[int],
    labels: dict[str, str],
    compute_silhouette: bool,
    tag: str,
    skipped: list[str],
) -> tuple[float | None, float | None]:
    """Purity and silhouette for one population, with skip bookkeeping."""
    if not ids:
        skipped.append(f"{tag}: empty population")
        return None, None
    pur = None
    if all(sid in labels for sid in ids):
        pur = purity(dict(zip(ids, cluster_ids)), labels).purity
    else:
        skipped.append(f"{tag}: ground-truth labels missing")
    sil = None
    if not compute_silhouette:
        skipped.append(f"{tag}: silhouette disabled")
    elif len(set(cluster_ids)) < 2:
        skipped.append(f"{tag}: fewer than 2 clusters")
    else:
        sil = mean_silhouette(points, cluster_ids)
    return pur, sil


def _known_population(known: KnownClusters) -> tuple[list[str], np.ndarray, list[int]]:
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    cluster_ids: list[int] = []
    for cluster in known.clusters:
        ids.extend(cluster.member_ids)
        blocks.append(cluster.member_points)
        cluster_ids.extend([cluster.id] * cluster.count)
    return ids, np.vstack(blocks), cluster_ids


@dataclass
class CellRun:
    """One online clusterer over one population, scored."""

    state: object
    emitted: list[int]
    assigned: np.ndarray
    purity: float | None
    silhouette: float | None
    skipped: list[str]
    seconds: float


def _cluster_cell(
    ids: list[str],
    points: np.ndarray,
    algorithm: str,
    n_clusters: int,
    base: int,
    config: PipelineConfig,
    labels: dict[str, str],
) -> CellRun:
    """Stream a population through one online clusterer seeded base + 1,
    assign every point to its final centroid, and score the result.

    state is None when no points arrived (except SOM, which always has its
    initial map); seconds covers the online stage only.
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
    seconds = time.perf_counter() - t0
    skipped: list[str] = []
    pur, sil = _score_population(
        ids, points, [int(c) for c in assigned], labels, config.compute_silhouette, "new",
        skipped,
    )
    return CellRun(state, list(clusterer.emitted), assigned, pur, sil, skipped, seconds)


def _prepare(
    config: PipelineConfig, data: tuple[Dataset, Dataset] | None
) -> tuple[Dataset, Dataset, dict[str, str], Projection]:
    """Validate and load the inputs, then fit the projection once per call."""
    config.validate(require_paths=data is None)
    corpus, stream = data if data is not None else load_inputs(config)
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    labels = _family_labels(corpus, stream)
    return corpus, stream, labels, fit_projection(corpus, stream, config.n_features)


def _routed_repeats(
    corpus: Dataset, stream: Dataset, proj: Projection, config: PipelineConfig
) -> Iterator[tuple[int, int, RoutingPass, float]]:
    """Route the stream once per repeat; yields (repeat, base seed, routing,
    perf_counter at the repeat's start)."""
    for r in range(config.repeats):
        base = repeat_seed(config.seed, r)
        started = time.perf_counter()
        yield r, base, run_routing(corpus, stream, proj, config, seed=base), started


def run_pipeline(config: PipelineConfig, data: tuple[Dataset, Dataset] | None = None) -> RunReport:
    """Run the full model for config.repeats repeats and aggregate.

    Each repeat is the grid cell (config.online_algorithm,
    config.online_clusters), plus known-population metrics; the first
    repeat also keeps its assignments and models. Unlike a grid cell, a
    failing online stage raises. The one-time preprocessing is timed into
    repeat 0's `preprocess` and `total`.
    """
    corpus, stream, labels, proj = _prepare(config, data)
    repeats: list[RepeatResult] = []
    first_assignments: list[RouteAssignment] = []
    first_models: dict = {}
    for r, base, routing, started in _routed_repeats(corpus, stream, proj, config):
        cell = _cluster_cell(
            routing.new_ids, routing.new_points, config.online_algorithm,
            config.online_clusters, base, config, labels,
        )
        skipped = cell.skipped
        if config.compute_known_metrics:
            k_ids, k_points, k_clusters = _known_population(routing.known)
            pur_known, sil_known = _score_population(
                k_ids, k_points, k_clusters, labels, config.compute_silhouette, "known", skipped
            )
        else:
            pur_known = sil_known = None
            skipped.append("known: metrics disabled")
        preprocess = proj.seconds if r == 0 else 0.0
        repeats.append(
            RepeatResult(
                repeat=r,
                seed=base,
                stream_size=routing.stream_size,
                known_count=routing.stream_size - len(routing.new_ids),
                new_count=len(routing.new_ids),
                new_route_fraction=routing.new_fraction,
                purity_new=cell.purity,
                silhouette_new=cell.silhouette,
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


def _grid_cell(
    ids: list[str],
    points: np.ndarray,
    algorithm: str,
    n_clusters: int,
    repeat: int,
    base: int,
    config: PipelineConfig,
    labels: dict[str, str],
) -> GridCell:
    """One grid or baseline cell. A ValueError from the online stage or the
    metrics leaves the cell with empty metrics and zero seconds."""
    try:
        cell = _cluster_cell(ids, points, algorithm, n_clusters, base, config, labels)
        pur, sil, seconds = cell.purity, cell.silhouette, cell.seconds
    except ValueError:
        pur, sil, seconds = None, None, 0.0
    return GridCell(algorithm, n_clusters, repeat, base, len(ids), pur, sil, seconds)


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
    algorithm, count). Cell failures are recorded as empty metrics and do
    not stop the grid.
    """
    counts, algos = grid_axes(cluster_counts, algorithms)
    corpus, stream, labels, proj = _prepare(config, data)
    cells = [
        _grid_cell(routing.new_ids, routing.new_points, algo, count, r, base, config, labels)
        for r, base, routing, _ in _routed_repeats(corpus, stream, proj, config)
        for algo in algos
        for count in counts
    ]
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
    whole population. Cells are ordered by (algorithm, count, repeat) and
    follow the grid's failure policy: a cell whose online stage or metrics
    raise ValueError gets empty metrics, and the sweep goes on.
    """
    counts, algos = grid_axes(cluster_counts, algorithms)
    corpus, stream, labels, proj = _prepare(config, data)
    ids = corpus.ids() + stream.ids()
    # Routing projects each stream sample on its own (run_routing,
    # transform_stream), the baseline the whole stream matrix at once. The two
    # differ in the last bit, so neither may replace the other without
    # changing results. Stacking corpus_z on the matrix projection gives the
    # same bytes as projecting vstack(corpus, stream) in one product.
    stream_z = transform_pca(proj.pca, apply_scaler(proj.scaler, stream.matrix()))
    points = np.vstack([proj.corpus_z, stream_z])
    cells = [
        _grid_cell(ids, points, algo, count, r, repeat_seed(config.seed, r), config, labels)
        for algo in algos
        for count in counts
        for r in range(config.repeats)
    ]
    return GridResult(cells=cells, summary=summarize(cells, counts, algos))
