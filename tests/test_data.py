import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famstream.data import (
    DataFormatError,
    Dataset,
    load_dataset,
    parse_year_month,
    save_dataset,
    split_by_time,
)
from famstream.pipeline import PipelineConfig, load_inputs

from conftest import make_dataset


CSV_FIXTURE = """id,family,first_seen,f0,f1
a,zbot,2018-01,1.0,2.0
b,,2018-02,3.5,-1.0
c,ramnit,,0.0,0.25
"""

JSONL_FIXTURE = (
    '{"id": "a", "family": "zbot", "first_seen": "2018-01", "features": [1.0, 2.0]}\n'
    '{"id": "b", "family": null, "first_seen": "2018-02", "features": [3.5, -1.0]}\n'
    '{"id": "c", "family": "ramnit", "first_seen": null, "features": [0.0, 0.25]}\n'
)


def test_parse_year_month():
    assert parse_year_month("2018-11") == (2018, 11)
    with pytest.raises(ValueError):
        parse_year_month("2018-13")
    with pytest.raises(ValueError):
        parse_year_month("late 2018")


def test_load_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV_FIXTURE)
    ds = load_dataset(path)
    assert len(ds) == 3 and ds.dim == 2
    assert ds.samples[0].id == "a" and ds.samples[0].family == "zbot"
    assert ds.samples[1].family is None
    assert ds.samples[2].first_seen is None
    np.testing.assert_array_equal(ds.samples[1].features, [3.5, -1.0])


def test_load_csv_nan_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,family,first_seen,f0,f1\na,,,1.0,2.0\nb,,,nan,0.0\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.line == 3
    assert "non-finite" in str(err.value)


def test_load_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,family,first_seen,f0,f1\na,,,1.0\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.line == 2


def test_load_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample,family,first_seen,f0\na,,,1.0\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.line == 1


HEADER = "id,family,first_seen,f0,f1,f2\n"
GOOD_ROW = "ok,fam,2018-01,1,2,3\n"


# Each message and line number is what a row-by-row parse reports. The ids
# starting "pinned" are cells that float() would read and np.loadtxt does
# not: both loaders reject them, so CSV and JSONL accept the same syntax.
@pytest.mark.parametrize("body, message", [
    pytest.param(GOOD_ROW + "a,,2018-01,x,1,2\n", "line 3: column 'f0': not a number: 'x'",
                 id="word-in-first-column"),
    pytest.param("a,,2018-01,1,2,x\n", "line 2: column 'f2': not a number: 'x'",
                 id="word-in-last-column"),
    pytest.param("a,,2018-01,1,,2\n", "line 2: column 'f1': not a number: ''", id="empty-cell"),
    pytest.param('a,,2018-01,"1,5",1,2\n', "line 2: column 'f0': not a number: '1,5'",
                 id="quoted-comma"),
    pytest.param(GOOD_ROW + "a,,2018-01,1,2,3,4\n", "line 3: expected 6 fields, got 7",
                 id="too-many-fields"),
    pytest.param("a,,2018-01,1,2\n", "line 2: expected 6 fields, got 5", id="too-few-fields"),
    pytest.param("a,,,nan,1,2\n", "line 2: column 'f0': non-finite value 'nan'", id="nan"),
    pytest.param("a,,,1,2,-inf\n", "line 2: column 'f2': non-finite value '-inf'", id="inf"),
    pytest.param("a,,,1,1e400,2\n", "line 2: column 'f1': non-finite value '1e400'",
                 id="overflow"),
    pytest.param(GOOD_ROW + ",fam,2018-01,1,2,3\n", "line 3: empty sample id", id="empty-id"),
    pytest.param("a,,2018-13,1,2,3\n", "line 2: month out of range in '2018-13'",
                 id="bad-month"),
    pytest.param("a,,late 2018,1,2,3\n", "line 2: expected YYYY-MM date, got 'late 2018'",
                 id="bad-date"),
    pytest.param(GOOD_ROW + "\n" + "a,,2018-01,1,2,zz\n", "line 4: column 'f2': not a number: 'zz'",
                 id="blank-line-before-bad-number"),
    pytest.param("\n\n" + "a,,2018-01,1\n", "line 4: expected 6 fields, got 4",
                 id="blank-lines-before-short-row"),
    # the first error in file order wins; within a row, numbers come before id and date
    pytest.param("a,,,x,2,3\n" + ",,,1,2,3\n", "line 2: column 'f0': not a number: 'x'",
                 id="number-before-later-id"),
    pytest.param(",,,1,x,3\n", "line 2: column 'f1': not a number: 'x'",
                 id="number-before-id-in-row"),
    pytest.param("a,,bad,1,x,3\n", "line 2: column 'f1': not a number: 'x'",
                 id="number-before-date-in-row"),
    pytest.param("a,,,1,x,3\n" + "b,,,1\n", "line 2: column 'f1': not a number: 'x'",
                 id="number-before-later-short-row"),
    pytest.param("b,,,1\n" + "a,,,1,x,3\n", "line 2: expected 6 fields, got 4",
                 id="short-row-before-later-number"),
    pytest.param(",,,1,2,3\n" + "a,,,1,x,3\n", "line 2: empty sample id",
                 id="id-before-later-number"),
    pytest.param("a,,,1,1_0,2\n", "line 2: column 'f1': not a number: '1_0'",
                 id="pinned-underscore"),
    pytest.param("a,,,1,\u0661,2\n", "line 2: column 'f1': not a number: '\u0661'",
                 id="pinned-non-ascii-digit"),
])
def test_load_csv_malformed_names_first_bad_line(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + body, encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert str(err.value) == message


def test_load_csv_accepted_number_syntax(tmp_path):
    cells = [" 1.5", "-2 ", "+3e2", ".5", "5.", "-0.0", "1E-400", "\t7\u00a0", '"8"']
    path = tmp_path / "ok.csv"
    path.write_text(
        "id,family,first_seen," + ",".join(f"f{i}" for i in range(len(cells))) + "\n"
        + "a,,," + ",".join(cells) + "\n",
        encoding="utf-8",
    )
    (sample,) = load_dataset(path).samples
    assert sample.features.tobytes() == np.array(
        [1.5, -2.0, 300.0, 0.5, 5.0, -0.0, 0.0, 7.0, 8.0]).tobytes()
    assert not sample.features.flags.writeable
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(DataFormatError, match="^line 1: empty file$"):
        load_dataset(tmp_path / "empty.csv")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_load_csv_from_pipe_is_a_data_error():
    # The CSV loader reads its input twice; a pipe is empty the second time.
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(HEADER + GOOD_ROW)
    try:
        with pytest.raises(DataFormatError, match="read 0 of 1 rows; CSV input must be a file"):
            load_dataset(f"/dev/fd/{read_end}", "csv")
    finally:
        os.close(read_end)


def test_load_jsonl_sample_ids(tmp_path):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"id": 0, "features": [1.0]}\n{"id": "x", "features": [2.0]}\n')
    assert load_dataset(path).ids == ["0", "x"]
    for sid in ("null", '""'):
        path.write_text('{"id": "x", "features": [1.0]}\n' + f'{{"id": {sid}, "features": [2.0]}}\n')
        with pytest.raises(DataFormatError, match="^line 2: empty sample id$"):
            load_dataset(path)
    for value, message in (('"1_0"', "not a number: '1_0'"), ("1" + "0" * 400, "not a number: 1")):
        path.write_text(f'{{"id": "x", "features": [1.0, {value}]}}\n')
        with pytest.raises(DataFormatError, match=f"^line 1: column 'f1': {message}"):
            load_dataset(path)


@pytest.mark.parametrize("field, value, message", [
    ("first_seen", 201811, "'first_seen' must be a string or null, got int"),
    ("first_seen", ["2018-11"], "'first_seen' must be a string or null, got list"),
    ("family", 7, "'family' must be a string or null, got int"),
    ("family", False, "'family' must be a string or null, got bool"),
    ("id", 1.5, "'id' must be a string or an integer, got float"),
    ("id", True, "'id' must be a string or an integer, got bool"),
    ("id", {"a": 1}, "'id' must be a string or an integer, got dict"),
])
def test_load_jsonl_rejects_non_string_fields(tmp_path, field, value, message):
    path = tmp_path / "types.jsonl"
    record = {"id": "y", "features": [2.0], field: value}
    path.write_text('{"id": "x", "features": [1.0]}\n' + json.dumps(record) + "\n")
    with pytest.raises(DataFormatError, match=f"^line 2: {message}$"):
        load_dataset(path)


def _insert_blank_lines(path, fmt, where):
    """Add a blank line after each record whose index is in `where`."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(fh)
    ends = []  # line count at the end of each record; CSV records may span lines
    if fmt == "csv":
        reader = csv.reader(io.StringIO("".join(lines), newline=""))
        for _ in reader:
            ends.append(reader.line_num)
    else:
        ends = list(range(1, len(lines) + 1))
    for i in sorted((i for i in where if i < len(ends)), reverse=True):
        lines.insert(ends[i], "\r\n" if fmt == "csv" else "\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                min_size=1, max_size=8)
_text = st.one_of(_text, st.text(st.sampled_from(',"\r\n a'), min_size=1, max_size=6))


@st.composite
def datasets(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(_text, min_size=n, max_size=n, unique=True))
    rows = []
    for sid in ids:
        features = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=dim, max_size=dim))
        family = draw(st.none() | _text)
        first_seen = draw(st.none() | st.builds("{:04d}-{:02d}".format,
                                                st.integers(1000, 9999), st.integers(1, 12)))
        rows.append((sid, features, family, first_seen))
    return make_dataset(rows)


@settings(max_examples=150, deadline=None)
@given(ds=datasets(), fmt=st.sampled_from(["csv", "jsonl"]),
       blanks=st.sets(st.integers(0, 13), max_size=4))
def test_save_load_round_trip_is_bit_identical(tmp_path_factory, ds, fmt, blanks):
    path = tmp_path_factory.mktemp("rt") / f"data.{fmt}"
    save_dataset(ds, path)
    _insert_blank_lines(path, fmt, blanks)
    back = load_dataset(path)
    assert back.dim == ds.dim
    assert [(s.id, s.family, s.first_seen) for s in back.samples] == [
        (s.id, s.family, s.first_seen) for s in ds.samples]
    for a, b in zip(ds.samples, back.samples):
        assert a.features.tobytes() == b.features.tobytes()


def test_load_jsonl_matches_csv(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(CSV_FIXTURE)
    jsonl_path = tmp_path / "data.jsonl"
    jsonl_path.write_text(JSONL_FIXTURE)
    a, b = load_dataset(csv_path), load_dataset(jsonl_path)
    assert len(a) == len(b) and a.dim == b.dim
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.id, sa.family, sa.first_seen) == (sb.id, sb.family, sb.first_seen)
        np.testing.assert_array_equal(sa.features, sb.features)


def test_load_jsonl_inconsistent_dim(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "features": [1.0]}\n{"id": "b", "features": [1.0, 2.0]}\n')
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.line == 2


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,family,first_seen,f0\na,,,1.0\na,,,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(7)
    rows = [
        (f"s{i}", rng.normal(size=3), None if i % 3 == 0 else f"fam{i % 2}",
         None if i % 4 == 0 else f"2018-{(i % 12) + 1:02d}")
        for i in range(20)
    ]
    ds = make_dataset(rows)
    path = tmp_path / f"out.{fmt}"
    save_dataset(ds, path, fmt)
    back = load_dataset(path, fmt)
    assert len(back) == len(ds)
    for sa, sb in zip(ds.samples, back.samples):
        assert (sa.id, sa.family, sa.first_seen) == (sb.id, sb.family, sb.first_seen)
        np.testing.assert_array_equal(sa.features, sb.features)


def test_empty_dataset_round_trips_as_csv_only(tmp_path):
    empty = Dataset([], np.empty((0, 3)), [], [])
    save_dataset(empty, tmp_path / "empty.csv")
    back = load_dataset(tmp_path / "empty.csv")
    assert len(back) == 0 and back.dim == 3
    # an empty JSONL file declares no dimension, so it is never written
    with pytest.raises(ValueError, match="cannot be saved as JSONL"):
        save_dataset(empty, tmp_path / "empty.jsonl")
    assert not (tmp_path / "empty.jsonl").exists()


def test_split_by_time_boundary_month():
    ds = make_dataset([
        ("a", [0.0], None, "2018-10"),
        ("b", [1.0], None, "2018-11"),
    ])
    corpus, stream = split_by_time(ds, "2018-11")
    assert [s.id for s in corpus.samples] == ["a"]
    assert [s.id for s in stream.samples] == ["b"]


def test_split_by_time_all_stream():
    ds = make_dataset([("a", [0.0], None, "2019-01"), ("b", [1.0], None, "2019-02")])
    corpus, stream = split_by_time(ds, "2018-01")
    assert len(corpus) == 0 and len(stream) == 2
    assert corpus.dim == 1


def test_split_by_time_sorts_stream_stably():
    rng = np.random.default_rng(3)
    months = ["2019-03", "2019-01", "2019-02", "2019-01", "2019-03", "2019-02"]
    ds = make_dataset([(f"s{i}", [float(i)], None, m) for i, m in enumerate(months)])
    _, stream = split_by_time(ds, "2019-01")
    got = [(s.first_seen, s.id) for s in stream.samples]
    # ascending month; ties keep input order
    assert got == [
        ("2019-01", "s1"), ("2019-01", "s3"),
        ("2019-02", "s2"), ("2019-02", "s5"),
        ("2019-03", "s0"), ("2019-03", "s4"),
    ]
    # partition property
    corpus, stream = split_by_time(ds, "2019-02")
    ids = {s.id for s in corpus.samples} | {s.id for s in stream.samples}
    assert len(corpus) + len(stream) == len(ds) and len(ids) == len(ds)


def test_split_by_time_missing_dates_lists_ids():
    ds = make_dataset([
        ("a", [0.0], None, "2018-01"),
        ("b", [1.0], None, None),
        ("c", [2.0], None, None),
    ])
    with pytest.raises(ValueError) as err:
        split_by_time(ds, "2018-06")
    assert "b" in str(err.value) and "c" in str(err.value)


def test_dataset_checks_columns():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    for features in (x[0], x.astype(np.float32), x.tolist()):
        with pytest.raises(ValueError, match="2-D float64 matrix"):
            Dataset(["a", "b"], features, [None, None], [None, None])
    with pytest.raises(ValueError, match="differ in length"):
        Dataset(["a"], x, [None, None], [None, None])
    with pytest.raises(ValueError, match=r"^duplicate sample ids: \['a'\]$"):
        Dataset(["a", "a"], x, [None, None], [None, None])
    bad = np.array([[1.0, 2.0], [np.inf, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="^sample 'b' has a non-finite feature$"):
        Dataset(["a", "b", "c"], bad, [None] * 3, [None] * 3)
    empty = Dataset([], np.empty((0, 4)), [], [])
    assert len(empty) == 0 and empty.dim == 4
    assert empty.take([]).dim == 4


def test_dataset_take_and_samples():
    ds = make_dataset([("a", [1.0, 2.0], "f", "2018-01"), ("b", [3.0, 4.0], None, None),
                       ("c", [5.0, 6.0], "g", "2018-03")])
    assert not ds.features.flags.writeable
    part = ds.take([2, 0])
    assert (part.ids, part.families, part.first_seen) == (["c", "a"], ["g", "f"],
                                                          ["2018-03", "2018-01"])
    assert part.features.tolist() == [[5.0, 6.0], [1.0, 2.0]]
    assert not part.features.flags.writeable
    # each Sample row is a read-only view of the matrix, not a copy
    for i, sample in enumerate(ds.samples):
        assert (sample.id, sample.family, sample.first_seen) == (
            ds.ids[i], ds.families[i], ds.first_seen[i])
        assert np.shares_memory(sample.features, ds.features)
        assert sample.features.base is ds.features
        assert not sample.features.flags.writeable


def test_load_jsonl_rejects_boolean_features(tmp_path):
    path = tmp_path / "bool.jsonl"
    path.write_text('{"id": "a", "features": [1.0, 2.0]}\n'
                    '{"id": "b", "features": [true, false]}\n')
    with pytest.raises(DataFormatError, match=r"^line 2: column 'f0': not a number: True$"):
        load_dataset(path)


_months = st.sampled_from(["2018-10", "2018-11", "2018-12", "2019-01"])


@st.composite
def dated_rows(draw):
    n = draw(st.integers(0, 12))
    dim = draw(st.integers(1, 3))
    return [
        (f"s{i}", draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)),
         draw(st.none() | st.sampled_from(["x", "y"])), draw(_months))
        for i in range(n)
    ], dim


def _columns(ds):
    return [(sid, row.tobytes(), family, month)
            for sid, row, family, month in zip(ds.ids, ds.features, ds.families, ds.first_seen)]


def _reference(rows):
    return [(sid, np.array(features, dtype=np.float64).tobytes(), family, month)
            for sid, features, family, month in rows]


def _dataset(rows, dim):
    return make_dataset(rows) if rows else Dataset([], np.empty((0, dim)), [], [])


@settings(max_examples=60, deadline=None)
@given(drawn=dated_rows(), cutoff=_months)
def test_split_by_time_matches_per_row_reference(drawn, cutoff):
    rows, dim = drawn
    corpus, stream = split_by_time(_dataset(rows, dim), cutoff)
    # per-row reference: corpus in input order; stream by month, ties in input order
    cut = parse_year_month(cutoff)
    earlier = [r for r in rows if parse_year_month(r[3]) < cut]
    later = [r for r in rows if parse_year_month(r[3]) >= cut]
    later.sort(key=lambda r: parse_year_month(r[3]))
    assert _columns(corpus) == _reference(earlier)
    assert _columns(stream) == _reference(later)
    assert corpus.dim == stream.dim == dim


@settings(max_examples=30, deadline=None)
@given(drawn=dated_rows(), fmt=st.sampled_from(["csv", "jsonl"]),
       undated=st.none() | st.integers(0, 11))
def test_load_inputs_stream_order_matches_per_row_reference(tmp_path_factory, drawn, fmt,
                                                             undated):
    rows, dim = drawn
    rows = [(sid, x, fam, None if i == undated else month)
            for i, (sid, x, fam, month) in enumerate(rows)]
    root = tmp_path_factory.mktemp("inputs")
    save_dataset(make_dataset([("corpus0", [0.0] * dim, None, None)]), root / "corpus.csv")
    stream_path = root / f"stream.{fmt if rows else 'csv'}"  # empty JSONL declares no dim
    save_dataset(_dataset(rows, dim), stream_path)
    _, stream = load_inputs(PipelineConfig(corpus_path=str(root / "corpus.csv"),
                                           stream_path=str(stream_path)))
    # per-row reference: by month, ties in file order, when every row is dated
    if all(r[3] is not None for r in rows):
        rows = sorted(rows, key=lambda r: r[3])
    assert _columns(stream) == _reference(rows)
