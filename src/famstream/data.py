"""The columnar Dataset, file ingestion, and the time split.

A Dataset holds four aligned columns: sample ids, one read-only (n, dim)
float64 feature matrix, families and first_seen months. The matrix is
checked once, when the Dataset is built (finite entries), and goes from the
file to the projection without being split into rows. Datasets come in two
interchange formats: CSV with header ``id,family,first_seen,f0,...,f{d-1}``
and JSONL with one object per line. A CSV file is read in two streamed
passes: one over its lines for the ids, dates and field counts, and one
`np.loadtxt` over its feature columns.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

_YEAR_MONTH = re.compile(r"^(\d{4})-(\d{2})$")
_RESERVED_COLUMNS = ("id", "family", "first_seen")


class DimensionMismatchError(ValueError):
    """Two vectors (or a vector and a fitted model) disagree on dimension."""

    def __init__(self, expected: int, got: int, context: str = ""):
        self.expected = int(expected)
        self.got = int(got)
        msg = f"dimension mismatch: expected {self.expected}, got {self.got}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class DataFormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_dim(expected: int, got: int, context: str = "") -> None:
    if expected != got:
        raise DimensionMismatchError(expected, got, context)


def parse_year_month(value: str) -> tuple[int, int]:
    """Parse a ``YYYY-MM`` date into a comparable (year, month) pair."""
    m = _YEAR_MONTH.match(value)
    if not m:
        raise ValueError(f"expected YYYY-MM date, got {value!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in {value!r}")
    return year, month


@dataclass(frozen=True)
class Sample:
    """One row of a Dataset, as `Dataset.samples` returns it: id, feature
    vector, optional ground truth and date. famstream itself reads columns.

    ``family`` is evaluation-only ground truth; clustering and routing code
    never reads it. ``first_seen`` has year-month granularity.
    """

    id: str
    features: np.ndarray
    family: str | None = None
    first_seen: str | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Four aligned columns: sample ids, one (n, dim) float64 feature matrix,
    families and first_seen months.

    Construction checks the columns and makes `features` read-only: it must
    be a 2-D float64 matrix with one row per id, the ids must be unique, and
    every feature must be finite (ValueError names the first bad sample).
    """

    ids: list[str]
    features: np.ndarray
    families: list[str | None]
    first_seen: list[str | None]

    def __post_init__(self):
        x = self.features
        if not isinstance(x, np.ndarray) or x.ndim != 2 or x.dtype != np.float64:
            raise ValueError("features must be a 2-D float64 matrix")
        if not len(self.ids) == len(self.families) == len(self.first_seen) == x.shape[0]:
            raise ValueError("ids, feature rows, families and first_seen differ in length")
        dups = sorted(sid for sid, count in Counter(self.ids).items() if count > 1)
        if dups:
            raise ValueError(f"duplicate sample ids: {dups}")
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            raise ValueError(f"sample {self.ids[bad[0]]!r} has a non-finite feature")
        x.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def samples(self) -> list[Sample]:
        """One Sample per row; its features are a read-only view of that row."""
        columns = (self.ids, self.features, self.families, self.first_seen)
        return [Sample(*row) for row in zip(*columns)]

    def take(self, rows) -> "Dataset":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        index = rows.tolist()
        return Dataset(
            [self.ids[i] for i in index],
            self.features[rows],
            [self.families[i] for i in index],
            [self.first_seen[i] for i in index],
        )


def _infer_format(path: str | Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown dataset format {fmt!r} (expected 'csv' or 'jsonl')")
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ValueError(f"cannot infer format from {path}; pass fmt='csv' or 'jsonl'")


def _parse_feature(raw: str | float, line: int, column: str) -> float:
    # A text cell must be what np.loadtxt reads: after stripping whitespace, an
    # ASCII float literal. float() alone would also take "1_0" and non-ASCII
    # digits, so the JSONL and CSV loaders would accept different files. A
    # JSON true or false is no number either, though float() reads 1.0 or 0.0.
    try:
        if isinstance(raw, bool) or (
            isinstance(raw, str) and ("_" in raw or not raw.strip().isascii())
        ):
            raise ValueError(raw)
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError(f"column {column!r}: not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise DataFormatError(f"column {column!r}: non-finite value {raw!r}", line)
    return value


def _check_id_and_date(sid, first_seen, line: int) -> None:
    if sid is None or sid == "":
        raise DataFormatError("empty sample id", line)
    if first_seen is not None:
        try:
            parse_year_month(first_seen)
        except ValueError as exc:
            raise DataFormatError(str(exc), line) from None


def load_dataset(path: str | Path, fmt: str | None = None) -> Dataset:
    """Load samples from a CSV or JSONL file.

    CSV header must be ``id,family,first_seen,f0,...,f{d-1}``; empty strings
    mean an absent family or date. JSONL lines are objects with keys ``id``,
    ``family``, ``first_seen``, ``features``. Raises DataFormatError with the
    offending line number on malformed rows, inconsistent dimensions, or
    non-finite feature values; the first error in file order wins. A CSV
    header declares the dimension, so a header-only file is an empty
    dataset; an empty JSONL file declares none and raises ValueError.
    """
    path = Path(path)
    return _load_csv(path) if _infer_format(path, fmt) == "csv" else _load_jsonl(path)


def _check_header(header: list[str]) -> None:
    if tuple(header[:3]) != _RESERVED_COLUMNS:
        raise DataFormatError(
            f"header must start with {','.join(_RESERVED_COLUMNS)}, got {header[:3]}", 1
        )
    feature_cols = header[3:]
    if not feature_cols:
        raise DataFormatError("header declares no feature columns", 1)
    expected = [f"f{i}" for i in range(len(feature_cols))]
    if feature_cols != expected:
        raise DataFormatError(
            f"feature columns must be f0..f{len(feature_cols) - 1}, got {feature_cols}", 1
        )


def _records(fh):
    """Yield (field count, first three fields) per record; (0, []) for a blank line.

    A line without a quote splits on commas, as csv.reader would split it; a
    line with one goes through csv.reader, which may read on into later
    lines for a quoted line break.
    """
    for raw in fh:
        if '"' in raw:
            row = next(csv.reader(itertools.chain([raw], fh)))
            yield len(row), row[:3]
        else:
            text = raw.rstrip("\r\n")
            yield (text.count(",") + 1, text.split(",", 3)[:3]) if text else (0, [])


def _load_csv(path: Path) -> Dataset:
    """The dataset of a CSV file; its header declares the dimension."""
    # Pass 1 stops at the first row whose field count, id or date is wrong.
    # Pass 2 parses the features of the rows before it (and of that row, when
    # its field count is right), so that a bad number earlier in the file, or
    # in the row itself, is reported first, as a row-by-row parse would.
    ids: list[str] = []
    families: list[str | None] = []
    months: list[str | None] = []
    pending: DataFormatError | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataFormatError("empty file", 1) from None
        _check_header(header)
        for line, (n_fields, head) in enumerate(_records(fh), start=2):
            if not n_fields:
                continue
            if n_fields != len(header):
                pending = DataFormatError(
                    f"expected {len(header)} fields, got {n_fields}", line
                )
                break
            sid, first_seen = head[0], head[2] or None
            ids.append(sid)
            families.append(head[1] or None)
            months.append(first_seen)
            try:
                _check_id_and_date(sid, first_seen, line)
            except DataFormatError as exc:
                pending = exc
                break
    features = _read_features(path, header, len(ids))
    if pending is not None:
        raise pending
    return Dataset(ids, features, families, months)


def _read_features(path: Path, header: list[str], n_rows: int) -> np.ndarray:
    """Parse the feature columns of the first n_rows records into one matrix."""
    if not n_rows:
        return np.empty((0, len(header) - len(_RESERVED_COLUMNS)), dtype=np.float64)
    try:
        with warnings.catch_warnings():
            # loadtxt warns that blank lines do not count toward max_rows (as
            # intended: n_rows counts records) and that an emptied pipe holds
            # no data (caught just below).
            warnings.simplefilter("ignore", UserWarning)
            matrix = np.loadtxt(
                path, dtype=np.float64, delimiter=",", quotechar='"', comments=None,
                skiprows=1, usecols=range(3, len(header)), max_rows=n_rows, ndmin=2,
                encoding="utf-8",
            )
    except ValueError as exc:
        _raise_bad_cell(path, header, n_rows, exc)
    if matrix.shape[0] != n_rows:  # e.g. a pipe, which the first pass emptied
        raise DataFormatError(
            f"feature columns: read {matrix.shape[0]} of {n_rows} rows; "
            "CSV input must be a file that can be read twice"
        )
    if not np.isfinite(matrix).all():
        _raise_bad_cell(path, header, n_rows, "non-finite value")
    return matrix


def _raise_bad_cell(path: Path, header: list[str], n_rows: int, cause) -> NoReturn:
    """Name the first feature cell, in file order, that the matrix parse rejected."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        records = ((line, row) for line, row in enumerate(reader, start=2) if row)
        for line, row in itertools.islice(records, n_rows):
            for raw, column in zip(row[3:], header[3:]):
                _parse_feature(raw, line, column)
    # Reached only if np.loadtxt split a record differently from csv.reader;
    # no such record is known, but the error must still be a DataFormatError.
    raise DataFormatError(f"feature columns: {cause}")


def _load_jsonl(path: Path) -> Dataset:
    ids: list[str] = []
    rows: list[list[float]] = []
    families: list[str | None] = []
    months: list[str | None] = []
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for line, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON: {exc.msg}", line) from None
            if not isinstance(obj, dict) or "id" not in obj or "features" not in obj:
                raise DataFormatError("object must have 'id' and 'features' keys", line)
            values = obj["features"]
            if not isinstance(values, list) or not values:
                raise DataFormatError("'features' must be a non-empty array", line)
            values = [_parse_feature(v, line, f"f{i}") for i, v in enumerate(values)]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DataFormatError(
                    f"inconsistent dimension: expected {dim}, got {len(values)}", line
                )
            sid = obj["id"]
            # an integer id reads as its decimal string, as a CSV cell would
            if isinstance(sid, (bool, float, list, dict)):
                raise DataFormatError(
                    f"'id' must be a string or an integer, got {type(sid).__name__}", line
                )
            for key in ("family", "first_seen"):
                if not isinstance(obj.get(key), (str, type(None))):
                    raise DataFormatError(
                        f"{key!r} must be a string or null, got {type(obj[key]).__name__}", line
                    )
            first_seen = obj.get("first_seen") or None
            _check_id_and_date(sid, first_seen, line)
            ids.append(str(sid))
            rows.append(values)
            families.append(obj.get("family") or None)
            months.append(first_seen)
    if dim is None:
        raise ValueError("cannot infer dimension of an empty dataset")
    return Dataset(ids, np.array(rows, dtype=np.float64), families, months)


def save_dataset(data: Dataset, path: str | Path, fmt: str | None = None) -> None:
    """Write a dataset back out; loading the result returns identical columns.

    An empty dataset saves only as CSV, whose header keeps the dimension. An
    empty JSONL file declares none, so that write raises ValueError before
    any file is opened.
    """
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if fmt == "jsonl" and len(data) == 0:
        raise ValueError("an empty dataset cannot be saved as JSONL: it would lose its dimension")
    rows = zip(data.ids, data.features, data.families, data.first_seen)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(_RESERVED_COLUMNS) + [f"f{i}" for i in range(data.dim)])
            for sid, features, family, first_seen in rows:
                writer.writerow(
                    [sid, family or "", first_seen or ""] + [repr(v) for v in features.tolist()]
                )
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, features, family, first_seen in rows:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "family": family,
                            "first_seen": first_seen,
                            "features": features.tolist(),
                        }
                    )
                    + "\n"
                )


def split_by_time(data: Dataset, cutoff: str) -> tuple[Dataset, Dataset]:
    """Split into (corpus, stream) at a year-month cutoff.

    The corpus keeps samples first seen strictly before the cutoff, in input
    order. The stream holds the rest in ascending first_seen order; ties keep
    input order. Every sample must carry a first_seen date.
    """
    cut = parse_year_month(cutoff)
    missing = [sid for sid, month in zip(data.ids, data.first_seen) if month is None]
    if missing:
        shown = missing[:10]
        suffix = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise ValueError(f"samples missing first_seen: {shown}{suffix}")
    months = [parse_year_month(month) for month in data.first_seen]
    corpus = [i for i, month in enumerate(months) if month < cut]
    stream = sorted((i for i, month in enumerate(months) if month >= cut),
                    key=months.__getitem__)  # stable
    return data.take(corpus), data.take(stream)
