"""Standard-score normalization and PCA, fit on the corpus only.

Both models are fit once on the batch corpus and then applied unchanged to
every stream sample, so the stream never leaks into the statistics. PCA
variances use the n-1 covariance denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import ClustererSpec, run_batch_clusterer
from .data import check_dim
from .metrics import mean_silhouette


@dataclass(frozen=True)
class ScalerModel:
    """Per-feature means and standard deviations of the corpus.

    Zero-variance features store std 1 so the transform is the identity
    shift there; nothing is dropped and dimensions stay aligned.
    """

    means: np.ndarray
    stds: np.ndarray
    dim: int

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist(), "dim": self.dim}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerModel":
        return cls(
            means=np.asarray(d["means"], dtype=np.float64),
            stds=np.asarray(d["stds"], dtype=np.float64),
            dim=int(d["dim"]),
        )


@dataclass(frozen=True)
class PCAModel:
    """Orthonormal principal directions of the scaled corpus.

    ``components`` is (n_components, dim), rows orthonormal, each row's
    largest-magnitude entry positive. ``variances`` are the matching
    eigenvalues of the corpus covariance, non-increasing, clamped at 0.
    """

    mean: np.ndarray
    components: np.ndarray
    variances: np.ndarray
    n_components: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "variances": self.variances.tolist(),
            "n_components": self.n_components,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PCAModel":
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            components=np.asarray(d["components"], dtype=np.float64),
            variances=np.asarray(d["variances"], dtype=np.float64),
            n_components=int(d["n_components"]),
        )


def _as_matrix(data) -> np.ndarray:
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    return X


def fit_scaler(corpus) -> ScalerModel:
    """Fit per-feature mean and population (divide-by-n) std on the corpus."""
    X = _as_matrix(corpus)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a scaler on an empty corpus")
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population std; ddof=0
    stds = np.where(stds == 0.0, 1.0, stds)
    return ScalerModel(means=means, stds=stds, dim=X.shape[1])


def apply_scaler(model: ScalerModel, x) -> np.ndarray:
    """Standard-score one vector (or the rows of a matrix)."""
    x = np.asarray(x, dtype=np.float64)
    check_dim(model.dim, x.shape[-1], "apply_scaler")
    return (x - model.means) / model.stds


def fit_pca(scaled_corpus, n_components: int) -> PCAModel:
    """Fit a PCA model with the top n_components covariance eigenvectors.

    The covariance uses the n-1 denominator; a single-row corpus gets a zero
    covariance. It is an einsum, not a BLAS product, so it is exactly
    symmetric and its bits do not depend on the BLAS thread count. The
    eigendecomposition is a deterministic symmetric solve, and each
    component's sign is fixed so its largest-magnitude entry is positive,
    which makes refits reproducible.
    """
    X = _as_matrix(scaled_corpus)
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot fit PCA on an empty corpus")
    if not 1 <= n_components <= min(d, n):
        raise ValueError(
            f"n_components must be in [1, min(dim={d}, n={n})], got {n_components}"
        )
    mean = X.mean(axis=0)
    centered = X - mean
    if n > 1:
        cov = np.einsum("ij,ik->jk", centered, centered) / (n - 1)
    else:
        cov = np.zeros((d, d), dtype=np.float64)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:n_components]
    variances = np.maximum(evals[order], 0.0)
    components = evecs[:, order].T.copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PCAModel(
        mean=mean, components=components, variances=variances, n_components=int(n_components)
    )


def transform_pca(model: PCAModel, x) -> np.ndarray:
    """Project one vector (or the rows of a matrix) onto the principal components.

    An einsum over C-ordered centered rows, not a BLAS product, so a row's
    bits depend on that row alone: it projects the same by itself, in any
    block or in the whole matrix, at any BLAS thread count. (einsum's
    summation order follows the memory layout, hence the C order.)
    """
    x = np.asarray(x, dtype=np.float64)
    check_dim(model.components.shape[1], x.shape[-1], "transform_pca")
    return np.einsum("...j,kj->...k", np.subtract(x, model.mean, order="C"), model.components)


@dataclass(frozen=True)
class FeatureSelectionCell:
    """One grid cell of the feature-count selection table."""

    n_features: int
    clusterer: str
    mean_silhouette: float | None


def select_feature_count(
    scaled_corpus,
    candidates,
    clusterers,
    seed: int = 0,
) -> tuple[tuple[int, str], list[FeatureSelectionCell]]:
    """Pick the PCA feature count maximizing mean silhouette.

    For every candidate count, fits PCA on the scaled corpus, runs each
    clusterer spec on the projected points, and records the mean silhouette;
    the specs' labelings at one count are scored from one distance pass.
    Failed cells (a clusterer error, DBSCAN noise, or fewer than two
    clusters) are stored with a None silhouette and skipped in the argmax.
    Purity is deliberately never consulted here; selection must work without
    labels.

    Returns the best (count, clusterer name) pair and the full table. Ties
    prefer the smaller count, then clusterer order.
    """
    X = _as_matrix(scaled_corpus)
    counts = sorted(set(int(c) for c in candidates))
    if not counts:
        raise ValueError("no candidate feature counts given")
    if counts[0] < 1 or counts[-1] > X.shape[1]:
        raise ValueError(f"candidates must lie in [1, dim={X.shape[1]}], got {counts}")
    specs: list[ClustererSpec] = list(clusterers)
    if not specs:
        raise ValueError("no clusterer configs given")

    table: list[FeatureSelectionCell] = []
    best: tuple[int, str] | None = None
    best_score = -np.inf
    for count in counts:
        model = fit_pca(X, count)
        Z = transform_pca(model, X)
        labelings: dict[int, np.ndarray] = {}
        for i, spec in enumerate(specs):
            try:
                labels = run_batch_clusterer(spec, Z, seed=seed)
            except ValueError:
                continue
            # scored only without noise and with the two clusters a silhouette needs
            if labels.min() >= 0 and labels.max() >= 1:
                labelings[i] = labels
        scores = dict(zip(labelings, mean_silhouette(Z, list(labelings.values()))))
        for i, spec in enumerate(specs):
            score = scores.get(i)
            table.append(FeatureSelectionCell(count, spec.name, score))
            if score is not None and score > best_score:
                best_score = score
                best = (count, spec.name)
    if best is None:
        raise ValueError("every grid cell failed; no feature count can be selected")
    return best, table
