"""famstream: streaming clustering of known and emerging malware families.

An initial unlabeled corpus is clustered in batch; a chronological stream is
then routed sample by sample, either into the known cluster a
distance-weighted k-NN proposes (when the expansion rule accepts it) or into
an online clusterer that tracks emerging families. Purity and silhouette
metrics score both populations.
"""

from .data import Dataset, Sample, load_dataset, save_dataset, split_by_time
from .decision import DecisionParams
from .pipeline import (
    GridResult,
    PipelineConfig,
    RunReport,
    run_grid,
    run_pipeline,
    run_reference_baseline,
    run_tau_sweep,
)
from .wknn import WKNNParams

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DecisionParams",
    "GridResult",
    "PipelineConfig",
    "RunReport",
    "Sample",
    "WKNNParams",
    "load_dataset",
    "run_grid",
    "run_pipeline",
    "run_reference_baseline",
    "run_tau_sweep",
    "save_dataset",
    "split_by_time",
]
