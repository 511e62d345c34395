"""Shared fixtures: small datasets and the full-size synthetic benchmark."""

import numpy as np
import pytest

from famstream.data import Dataset
from famstream.synthetic import make_corpus_and_stream

# One fixed generator seed for the end-to-end benchmark; the pipeline's own
# randomness is exercised through per-repeat model seeds.
BENCHMARK_SEED = 11


def make_dataset(rows):
    """rows: a non-empty list of (id, features, family, first_seen) tuples."""
    ids, features, families, first_seen = map(list, zip(*rows))
    return Dataset(ids, np.array(features, dtype=np.float64), families, first_seen)


def blobs(rng, centers, n_per, std=0.5):
    """Gaussian blobs with integer labels; returns (points, labels)."""
    points, labels = [], []
    for i, c in enumerate(centers):
        pts = rng.normal(loc=c, scale=std, size=(n_per, len(c)))
        points.append(pts)
        labels.extend([i] * n_per)
    return np.vstack(points), labels


@pytest.fixture(scope="session")
def benchmark_data():
    """Full-size fixture: 4 corpus families x 1000 in 100 dims, 3000-sample
    stream mixing the 4 known and 3 emerging families."""
    return make_corpus_and_stream(seed=BENCHMARK_SEED)


@pytest.fixture(scope="session")
def small_data():
    """Scaled-down variant of the benchmark for fast pipeline tests."""
    return make_corpus_and_stream(
        seed=BENCHMARK_SEED,
        corpus_per_family=150,
        stream_known_per_family=40,
        stream_new_per_family=80,
    )
