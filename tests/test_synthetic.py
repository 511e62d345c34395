import numpy as np
import pytest

from famstream.data import parse_year_month
from famstream.synthetic import DEFAULT_CUTOFF, make_corpus_and_stream, make_family_dataset


def test_default_shapes_and_dates():
    data = make_family_dataset(seed=3)
    assert len(data) == 4000 + 3000 and data.dim == 100
    cut = parse_year_month(DEFAULT_CUTOFF)
    families = {s.family for s in data.samples}
    assert families == {f"family{i:02d}" for i in range(7)}
    for s in data.samples:
        assert s.family is not None and s.first_seen is not None
        if s.id.startswith("c"):
            assert parse_year_month(s.first_seen) < cut
        else:
            assert parse_year_month(s.first_seen) >= cut
    # emerging families never appear before the cutoff
    corpus_families = {s.family for s in data.samples if s.id.startswith("c")}
    assert corpus_families == {f"family{i:02d}" for i in range(4)}


def test_split_matches_id_prefixes():
    corpus, stream = make_corpus_and_stream(
        seed=5, corpus_per_family=30, stream_known_per_family=10, stream_new_per_family=20
    )
    assert len(corpus) == 120 and len(stream) == 100
    assert all(s.id.startswith("c") for s in corpus.samples)
    assert all(s.id.startswith("s") for s in stream.samples)
    months = [parse_year_month(s.first_seen) for s in stream.samples]
    assert months == sorted(months)


def test_generator_deterministic():
    a = make_family_dataset(seed=9, corpus_per_family=20,
                            stream_known_per_family=5, stream_new_per_family=5)
    b = make_family_dataset(seed=9, corpus_per_family=20,
                            stream_known_per_family=5, stream_new_per_family=5)
    assert (a.ids, a.families, a.first_seen) == (b.ids, b.families, b.first_seen)
    assert a.features.tobytes() == b.features.tobytes()
    c = make_family_dataset(seed=10, corpus_per_family=20,
                            stream_known_per_family=5, stream_new_per_family=5)
    assert not np.array_equal(a.features, c.features)


def test_family_radii_bounded():
    data = make_family_dataset(seed=7, corpus_per_family=300,
                               stream_known_per_family=0, stream_new_per_family=0,
                               n_new_families=0, noise_scale=0.0)
    X = data.features
    fams = np.array(data.families)
    for fam in np.unique(fams):
        pts = X[fams == fam]
        radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        # raw radius support is within_scale * [radial_low, radial_high]
        assert radii.max() <= 6.0 * 2.3 * 1.05
        assert radii.min() >= 6.0 * 0.7 * 0.5


def test_rejects_bad_family_counts():
    with pytest.raises(ValueError):
        make_family_dataset(n_known_families=0)
