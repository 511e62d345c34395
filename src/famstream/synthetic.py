"""Synthetic family-structured datasets for experiments and tests.

Each family is a low-intrinsic-dimension cloud embedded in a high-dimensional
feature space: a random orthonormal basis of a few strong directions, a
radial spread factor with a decreasing-density tail, and a little ambient
noise. That shape (dense core, sparse fringe, bounded support) mirrors how
malware-family feature clouds behave far better than an isotropic Gaussian
blob would, and it is what makes a negative expansion threshold usable.

Known families receive corpus dates before the cutoff and also appear in the
stream; emerging families appear only after the cutoff.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, split_by_time

DEFAULT_CUTOFF = "2018-11"

_CORPUS_MONTHS = [f"2018-{m:02d}" for m in range(1, 11)]
_STREAM_MONTHS = [f"2018-{m:02d}" for m in (11, 12)] + [f"2019-{m:02d}" for m in range(1, 5)]


def make_family_dataset(
    seed: int = 0,
    n_known_families: int = 4,
    n_new_families: int = 3,
    dim: int = 100,
    corpus_per_family: int = 1000,
    stream_known_per_family: int = 300,
    stream_new_per_family: int = 600,
    center_spread: float = 1.1,
    family_dims: int = 3,
    within_scale: float = 6.0,
    radial_low: float = 0.7,
    radial_high: float = 2.3,
    radial_shape: float = 3.0,
    noise_scale: float = 0.05,
) -> Dataset:
    """Generate one labeled, dated dataset of known plus emerging families.

    Samples are x = center + r * (B v) + noise, with B a per-family
    orthonormal (dim x family_dims) basis, v uniform on the subspace sphere,
    and radius r = within_scale * u where u is drawn from
    radial_low + (radial_high - radial_low) * Beta(1, radial_shape). The
    radius support is therefore bounded with a dense core and a thin fringe.
    Family labels and first_seen dates are attached for evaluation and
    splitting only.
    """
    if n_known_families < 1 or n_new_families < 0:
        raise ValueError("need at least one known family and a non-negative new count")
    rng = np.random.default_rng(seed)
    total_families = n_known_families + n_new_families
    centers = rng.normal(0.0, center_spread, size=(total_families, dim))
    bases = []
    for _ in range(total_families):
        raw = rng.normal(size=(dim, family_dims))
        q, _ = np.linalg.qr(raw)
        bases.append(q[:, :family_dims])

    def draw(family: int, n: int) -> np.ndarray:
        z = rng.normal(size=(n, family_dims))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        u = radial_low + (radial_high - radial_low) * rng.beta(1.0, radial_shape, size=n)
        body = (z * (u * within_scale)[:, None]) @ bases[family].T
        noise = rng.normal(0.0, noise_scale, size=(n, dim))
        return centers[family] + body + noise

    ids: list[str] = []
    blocks: list[np.ndarray] = []
    families: list[str] = []
    first_seen: list[str] = []

    def emit(prefix: str, family: int, points: np.ndarray, months: list[str]) -> None:
        chosen = rng.choice(len(months), size=points.shape[0])
        start = len(ids)
        ids.extend(f"{prefix}{i:05d}" for i in range(start, start + points.shape[0]))
        blocks.append(points)
        families.extend([f"family{family:02d}"] * points.shape[0])
        first_seen.extend(months[i] for i in chosen.tolist())

    for fam in range(n_known_families):
        emit("c", fam, draw(fam, corpus_per_family), _CORPUS_MONTHS)
    for fam in range(n_known_families):
        emit("s", fam, draw(fam, stream_known_per_family), _STREAM_MONTHS)
    for fam in range(n_known_families, total_families):
        emit("s", fam, draw(fam, stream_new_per_family), _STREAM_MONTHS)

    # shuffle so within-month arrival order mixes families, like real feeds
    order = rng.permutation(len(ids))
    return Dataset(ids, np.vstack(blocks), families, first_seen).take(order)


def make_corpus_and_stream(seed: int = 0, **kwargs) -> tuple[Dataset, Dataset]:
    """Generate and split a fixture at the default cutoff month."""
    data = make_family_dataset(seed=seed, **kwargs)
    return split_by_time(data, DEFAULT_CUTOFF)
