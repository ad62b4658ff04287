"""Sensor-frame data model: ingestion, cleaning, label merging, correlation,
and feature selection.

A frame is an immutable bundle of a shared timestamp axis (epoch seconds,
nominally one sample every 120 s), named float64 channel series where NaN
marks a missing cell, and optional named integer label series.

CSV contract: first column ``timestamp`` (ISO-8601 or integer epoch seconds),
then feature columns by name, then optional label columns ``person`` and
``window_open``; UTF-8, ``.`` decimal separator, empty cell = missing.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDataError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from .schema import dump, load

# Canonical channel and label names of the sensor fleet.
STANDARD_CHANNELS: tuple[str, ...] = (
    "pressure", "temperature", "sound", "tvoc", "oxygen", "humidity",
    "humidity_abs", "co2", "co", "so2", "no2", "o3", "pm2_5", "pm10",
    "pm1", "sound_max", "dewpt",
)
STANDARD_LABELS: tuple[str, ...] = ("person", "window_open")

NOMINAL_PERIOD_S = 120
# CSV writers format this many rows per block, and the frame reader decodes and
# reads about this many bytes per block, cut after a line end, so peak memory
# stays flat whatever the number of rows
CSV_BLOCK_ROWS = 1024
CSV_BLOCK_BYTES = 1 << 20


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SensorFrame:
    """Timestamped multichannel sensor record with optional labels.

    values has shape (C, N) with NaN as the missing marker; label_values has
    shape (K, N) with non-negative integers.
    """

    timestamps: np.ndarray
    channel_names: tuple[str, ...]
    values: np.ndarray
    label_names: tuple[str, ...] = ()
    label_values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    device_id: str = ""

    def __post_init__(self):
        ts = _frozen(np.asarray(self.timestamps, dtype=np.int64))
        vals = _frozen(np.asarray(self.values, dtype=np.float64))
        labs = _frozen(np.asarray(self.label_values, dtype=np.int64))
        if labs.size == 0:
            labs = _frozen(np.zeros((len(self.label_names), ts.shape[0]), dtype=np.int64))
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "label_values", labs)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "label_names", tuple(self.label_names))
        n = ts.shape[0]
        if vals.shape != (len(self.channel_names), n):
            raise IntegrityError(
                f"values shape {vals.shape} does not match "
                f"{len(self.channel_names)} channels x {n} rows"
            )
        if labs.shape != (len(self.label_names), n):
            raise IntegrityError(
                f"label shape {labs.shape} does not match "
                f"{len(self.label_names)} labels x {n} rows"
            )
        if n > 1 and not np.all(np.diff(ts) > 0):
            raise IntegrityError("timestamps must be strictly increasing")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise IntegrityError("channel names must be unique")
        if len(set(self.label_names)) != len(self.label_names):
            raise IntegrityError("label names must be unique")
        if labs.size and labs.min() < 0:
            raise IntegrityError("label values must be >= 0")

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.values[self.channel_names.index(name)]
        except ValueError:
            raise SchemaError(f"unknown channel {name!r}") from None

    def label(self, name: str) -> np.ndarray:
        try:
            return self.label_values[self.label_names.index(name)]
        except ValueError:
            raise SchemaError(f"unknown label {name!r}") from None

    def select_channels(self, names: list[str] | tuple[str, ...]) -> "SensorFrame":
        idx = []
        for name in names:
            if name not in self.channel_names:
                raise SchemaError(f"unknown channel {name!r}")
            idx.append(self.channel_names.index(name))
        return replace(self, channel_names=tuple(names), values=self.values[idx])

    def slice_rows(self, start: int, end: int) -> "SensorFrame":
        return replace(self, timestamps=self.timestamps[start:end],
                       values=self.values[:, start:end],
                       label_values=self.label_values[:, start:end])

    def without_labels(self) -> "SensorFrame":
        return replace(self, label_names=(), label_values=np.zeros((0, 0), dtype=np.int64))

    def label_matrix(self) -> np.ndarray:
        """Labels as an (N, K) float64 matrix in label-name order."""
        return self.label_values.T.astype(np.float64)


@dataclass(frozen=True)
class MissingReport:
    """Per-channel missing counts and index runs (start, length)."""

    channel_names: tuple[str, ...]
    counts: tuple[int, ...]
    runs: tuple[tuple[tuple[int, int], ...], ...]
    total_rows: int

    def to_json(self) -> str:
        return dump({"total_rows": self.total_rows, "channels": {
            name: {"missing": c, "runs": [list(r) for r in runs]}
            for name, c, runs in zip(self.channel_names, self.counts, self.runs)}})


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson r over features and classes; symmetric with unit diagonal."""

    variable_names: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix, dtype=np.float64)))
        d = len(self.variable_names)
        if self.matrix.shape != (d, d):
            raise IntegrityError("correlation matrix must be square over variable names")

    def value(self, a: str, b: str) -> float:
        i = self.variable_names.index(a)
        j = self.variable_names.index(b)
        return float(self.matrix[i, j])

    def to_json(self) -> str:
        return dump({"variables": list(self.variable_names), "matrix": self.matrix.tolist()})

    @staticmethod
    def from_json(text: str) -> "CorrelationMatrix":
        doc = load(_CorrelationDoc, text, "correlation")
        if {len(doc.matrix), *map(len, doc.matrix)} != {len(doc.variables)}:
            raise IntegrityError("correlation key 'matrix' must be square over 'variables'")
        return CorrelationMatrix(doc.variables, np.asarray(doc.matrix, dtype=np.float64))


@dataclass(frozen=True)
class _CorrelationDoc:
    variables: tuple[str, ...]
    matrix: list[list[float]]


@dataclass(frozen=True)
class FeatureSet:
    """Retained channel names plus a provenance note for reproducibility."""

    names: tuple[str, ...]
    note: str

    def __post_init__(self):
        if not self.names:
            raise DegenerateDataError("feature set must be non-empty")

    def to_json(self) -> str:
        return dump({"features": list(self.names), "note": self.note})

    @staticmethod
    def from_json(text: str) -> "FeatureSet":
        doc = load(_FeaturesDoc, text, "feature set")
        return FeatureSet(doc.features, doc.note)


@dataclass(frozen=True)
class _FeaturesDoc:
    features: tuple[str, ...]
    note: str = ""


# Cell grammar of the body, as csv reads it: whitespace other than a line
# break, a blank cell (bare, or quoted and then padded), an all-blank row with
# the line break before it, and a blank cell after a delimiter.
_SPACE = r"[^\S\r\n]"
_BLANK = rf'(?:"{_SPACE}*")?{_SPACE}*'
_BLANK_ROW = re.compile(rf"\n(?:{_BLANK},)*{_BLANK}(?=[\r\n]|\Z)")
_BLANK_CELL = re.compile(rf",{_BLANK}(?=[,\r\n]|\Z)")
# a quoted cell that is still open at the end of its line
_OPEN_QUOTE = re.compile(r'(?:^|,)"(?:[^"\n]|"")*$', re.M)
_INTEGER = re.compile(r"[+-]?[0-9]+")
# bytes that are not UTF-8, as decoded with errors="surrogateescape"
_UNDECODED = re.compile("[\udc80-\udcff]")
_INT64 = np.iinfo(np.int64)


def _parse_timestamp(cell: str) -> int:
    """Epoch seconds of a timestamp cell: a 64-bit integer or ISO-8601 (UTC if naive).

    Raises ValueError naming the problem.
    """
    cell = cell.strip()
    if not cell:
        raise ValueError("empty timestamp")
    if _INTEGER.fullmatch(cell):
        value = int(cell)
        if not _INT64.min <= value <= _INT64.max:
            raise ValueError(f"timestamp {cell} is outside the 64-bit range")
        return value
    try:
        dt = datetime.fromisoformat(cell.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"unparseable timestamp {cell!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _cell_fault(cell: str, kind: str) -> str | None:
    """Why the reader refuses one cell of kind timestamp, channel or label, or None."""
    if _UNDECODED.search(cell):
        return "cell is not valid UTF-8"
    if "\n" in cell or "\r" in cell:
        return "line break inside a quoted cell"
    cell = cell.strip()
    if kind == "timestamp":
        try:
            _parse_timestamp(cell)
        except ValueError as exc:
            return str(exc)
    elif kind == "label":
        if not _INTEGER.fullmatch(cell):
            return f"label cell must be a non-negative integer, got {cell!r}"
        if int(cell) < 0:
            return "label cell must be >= 0"
        if int(cell) > _INT64.max:
            return f"label cell {cell} is outside the 64-bit range"
    elif cell and (not cell.isascii() or "_" in cell):
        return f"unparseable cell {cell!r}"
    elif cell:
        try:
            float(cell)
        except ValueError:
            return f"unparseable cell {cell!r}"
    return None


def _first_fault(text: str, header: list[str], channel_cols: list[str],
                 label_cols: list[str]) -> ParseError:
    """The error for the first row or cell of ``text`` that the reader refuses.

    Only for a CSV that numpy's reader refused in some block: the whole text
    is read again one row at a time, and in each row the timestamp, then the
    channels, then the labels, so rows are numbered across the file.
    """
    col_of = {name: i for i, name in enumerate(header)}
    checks = [(0, "timestamp"), *((col_of[n], "channel") for n in channel_cols),
              *((col_of[n], "label") for n in label_cols)]
    reader = csv.reader(io.StringIO(text))
    next(reader)
    row_i = 0
    try:
        for row_i, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                return ParseError(f"row {row_i}: expected {len(header)} cells, got {len(row)}",
                                  row=row_i)
            for j, kind in checks:
                fault = _cell_fault(row[j], kind)
                if fault:
                    return ParseError(f"row {row_i}, column {header[j]!r}: {fault}",
                                      row=row_i, column=header[j])
    except csv.Error as exc:
        return ParseError(f"row {row_i + 1}: {exc}", row=row_i + 1)
    return ParseError("the CSV body could not be read, but no row was found at fault")


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, one at a time, so a reader holds one line's copy."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def _read_table(block: memoryview, dtype: np.dtype) -> np.ndarray | None:
    """One structured row per data line of ``block``, bytes of the CSV body
    from a line end to a line end, or None if it holds bytes that are not
    UTF-8 or numpy's reader refuses it.

    Blank cells become ``nan`` and all-blank rows empty lines first. Integer
    timestamps are read in C; if that fails the block is read again with
    ``_parse_timestamp`` converting the timestamp column, for ISO-8601.
    """
    # a UTF-8 sequence never holds a line end, so a block decodes as in the whole text
    body = str(block, "utf-8", "surrogateescape")
    if not body.isascii() and _UNDECODED.search(body):
        return None
    body = _BLANK_ROW.sub("\n", body)
    body = _BLANK_CELL.sub(",nan", body)
    if not body.strip():
        return np.empty(0, dtype)
    if '"' in body and _OPEN_QUOTE.search(body):
        return None
    for converters in (None, {0: _parse_timestamp}):
        try:
            with warnings.catch_warnings():
                # numpy < 2.0 reads an integer cell such as 1.0 or 1e30 through
                # a float, with only a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                return np.loadtxt(_lines(body), dtype=dtype, delimiter=",", quotechar='"',
                                  comments=None, converters=converters, ndmin=1,
                                  encoding="utf-8")
        except (ValueError, OverflowError, DeprecationWarning):
            continue
    return None


def _header_record(data: bytes) -> tuple[list[str], int]:
    """The first record of ``data`` as ``csv.reader`` reads it, and the byte
    offset of the line after it.

    The reader takes whole lines, so a header cell quoted around a line break
    still reads as one cell.
    """
    taken = 0

    def lines() -> Iterator[str]:
        nonlocal taken
        while taken < len(data):
            end = data.find(b"\n", taken) + 1 or len(data)
            line = data[taken:end].decode("utf-8", "surrogateescape")
            taken = end
            yield line

    try:
        return next(csv.reader(lines())), taken
    except StopIteration:
        raise SchemaError("empty CSV: no header row") from None
    except csv.Error as exc:
        raise SchemaError(f"header: {exc}") from None


def _body_blocks(data: bytes, start: int) -> Iterator[memoryview]:
    """Views of ``data[start:]`` in blocks of about ``CSV_BLOCK_BYTES``, each
    cut after a line end and led by the line end before it.

    ``start`` must follow a line end, as the body does.
    """
    view = memoryview(data)
    while start < len(data):
        end = data.find(b"\n", start + CSV_BLOCK_BYTES - 1) + 1 or len(data)
        yield view[start - 1:end]
        start = end


def parse_frame(csv_bytes: bytes) -> SensorFrame:
    """Parse a CSV byte stream into a SensorFrame.

    Blank cells (empty or whitespace, bare or quoted) become NaN and all-blank
    rows are skipped; rows are sorted by timestamp; duplicate timestamps raise
    IntegrityError. After the header record, the body is decoded and read by
    numpy's C text reader in line-aligned blocks of about ``CSV_BLOCK_BYTES``
    that fill the frame's arrays, so beside its input the reader holds the
    frame and one block. A short or long row, or a cell it refuses, raises
    ParseError naming the row (1-based, counting skipped rows) and the column;
    only then is the whole text decoded, to number rows across the file.
    """
    header, start = _header_record(csv_bytes)
    header = [h.strip() for h in header]
    if not header or header[0] != "timestamp":
        raise SchemaError(f"first column must be 'timestamp', got {header[:1]}")
    if len(set(header)) != len(header):
        raise SchemaError("duplicate column names in header")
    if _UNDECODED.search(",".join(header)):
        raise ParseError("header: not valid UTF-8")
    label_cols = [h for h in header[1:] if h in STANDARD_LABELS]
    channel_cols = [h for h in header[1:] if h not in STANDARD_LABELS]

    kinds = [np.int64] + [np.int64 if h in label_cols else np.float64 for h in header[1:]]
    dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])
    # every data row is one line, so the body's line count bounds the rows
    lines = csv_bytes.count(b"\n", start) + (not csv_bytes.endswith(b"\n"))
    ts = np.empty(lines, np.int64)
    values = np.empty((len(channel_cols), lines))
    labels = np.empty((len(label_cols), lines), np.int64)
    fields = {name: f"f{j}" for j, name in enumerate(header)}
    n = 0
    for block in _body_blocks(csv_bytes, start):
        table = _read_table(block, dtype)
        if table is None or any(table[fields[name]].min(initial=0) < 0 for name in label_cols):
            raise _first_fault(csv_bytes.decode("utf-8", "surrogateescape"), header,
                               channel_cols, label_cols)
        end = n + len(table)
        ts[n:end] = table["f0"]
        for out, names in ((values, channel_cols), (labels, label_cols)):
            for row, name in zip(out, names):
                row[n:end] = table[fields[name]]
        n = end
    ts, values, labels = ts[:n], values[:, :n], labels[:, :n]
    if n > 1 and not (ts[1:] > ts[:-1]).all():
        order = np.argsort(ts, kind="stable")
        ts, values, labels = ts[order], values[:, order], labels[:, order]
        dupes = ts[1:][ts[1:] == ts[:-1]]
        if dupes.size:
            raise IntegrityError(f"duplicate timestamps (e.g. {int(dupes[0])})")
    return SensorFrame(
        timestamps=ts,
        channel_names=tuple(channel_cols),
        values=values,
        label_names=tuple(label_cols),
        label_values=labels,
    )


def csv_line(cells: list[str]) -> str:
    """One CSV row of text cells, quoted as ``csv.writer`` quotes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def format_cells(column: np.ndarray) -> list[str]:
    """Text cells of one column: ``str`` of each integer, ``repr`` of each
    float, the empty cell for NaN, and each string quoted as ``csv.writer``
    quotes it.

    For finite floats and integers these are also the JSON numbers that
    ``json.dumps`` writes.
    """
    if column.dtype.kind == "U":
        # behind an empty cell, as ``csv.writer`` writes a cell inside a row
        return [csv_line(["", text])[1:-1] for text in column.tolist()]
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    cells = list(map(repr, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return cells


def csv_blocks(columns: list[np.ndarray]) -> Iterator[tuple[int, list[list[str]], str]]:
    """Equal-length 1-D columns, ``CSV_BLOCK_ROWS`` rows at a time: the block's
    first row, its cells column by column from one ``format_cells`` call per
    column, and its comma-joined data rows, each ending in a newline.

    The rows are joined before the block is yielded, so a caller may reuse
    the cell lists.
    """
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = [format_cells(c[lo:lo + CSV_BLOCK_ROWS]) for c in columns]
        yield lo, cells, "\n".join(map(",".join, zip(*cells))) + "\n"


def csv_text_blocks(header: list[str], columns) -> Iterator[str]:
    """The text of every CSV, one block at a time: ``header`` as ``csv.writer``
    writes it, then the rows of the equal-length ``columns`` (sequences or 1-D
    arrays), formatted by ``format_cells``, ``CSV_BLOCK_ROWS`` rows a block."""
    yield csv_line(header)
    for _, _, rows in csv_blocks([np.asarray(c) for c in columns]):
        yield rows


def csv_text(header: list[str], columns) -> str:
    """The blocks of ``csv_text_blocks`` joined."""
    return "".join(csv_text_blocks(header, columns))


def frame_csv_blocks(frame: SensorFrame) -> Iterator[str]:
    """The text of ``frame_to_csv``, one block at a time, for a writer that
    need not hold the whole text."""
    return csv_text_blocks(["timestamp", *frame.channel_names, *frame.label_names],
                           [frame.timestamps, *frame.values, *frame.label_values])


def frame_to_csv(frame: SensorFrame) -> bytes:
    """Serialize a frame back to the CSV contract (round-trips exactly)."""
    return "".join(frame_csv_blocks(frame)).encode("utf-8")


def missing_report(frame: SensorFrame) -> MissingReport:
    """Count missing cells and their index runs per channel."""
    counts = []
    runs_all = []
    for c in range(len(frame.channel_names)):
        mask = np.isnan(frame.values[c])
        counts.append(int(mask.sum()))
        edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
        starts = np.flatnonzero(edges == 1)
        lengths = np.flatnonzero(edges == -1) - starts
        runs_all.append(tuple(zip(starts.tolist(), lengths.tolist())))
    return MissingReport(
        channel_names=frame.channel_names,
        counts=tuple(counts),
        runs=tuple(runs_all),
        total_rows=len(frame),
    )


def interpolate_missing(frame: SensorFrame, edge_policy: str = "trim") -> SensorFrame:
    """Fill interior missing runs linearly; handle edges per policy.

    edge_policy 'trim' drops leading/trailing rows that are missing in any
    channel (across all channels, keeping the timeline aligned); 'extend'
    repeats the nearest present value. Interior runs are always filled by
    linear interpolation between the nearest present neighbours (index-based,
    which equals time-based interpolation on the nominal uniform grid).

    An infinite cell raises DegenerateDataError naming its channel and
    timestamp: a fill next to it would be infinite, and one between two
    infinities of opposite sign NaN.
    """
    if edge_policy not in ("trim", "extend"):
        raise ConfigError(f"edge_policy must be 'trim' or 'extend', got {edge_policy!r}")
    n = len(frame)
    values = frame.values.copy()
    lead = 0
    trail = 0
    for c, name in enumerate(frame.channel_names):
        if (inf := np.flatnonzero(np.isinf(values[c]))).size:
            raise DegenerateDataError(f"channel {name!r} has an infinite cell at timestamp "
                                      f"{int(frame.timestamps[inf[0]])}")
        mask = np.isnan(values[c])
        if mask.all():
            raise DegenerateDataError(f"channel {name!r} has no present values")
        if not mask.any():
            continue
        present = np.flatnonzero(~mask)
        first, last = int(present[0]), int(present[-1])
        lead = max(lead, first)
        trail = max(trail, n - 1 - last)
        interior = np.flatnonzero(mask[first:last + 1]) + first
        if interior.size:
            values[c, interior] = np.interp(interior, present, values[c, present])
        if edge_policy == "extend":
            values[c, :first] = values[c, first]
            values[c, last + 1:] = values[c, last]
    filled = replace(frame, values=values)
    return filled.slice_rows(lead, n - trail) if edge_policy == "trim" else filled


def binarize_person(frame: SensorFrame) -> SensorFrame:
    """Merge person counts into a presence indicator (count > 0 -> 1)."""
    if "person" not in frame.label_names:
        raise SchemaError("frame has no 'person' label")
    labels = frame.label_values.copy()
    k = frame.label_names.index("person")
    labels[k] = (labels[k] > 0).astype(np.int64)
    return replace(frame, label_values=labels)


def _series_for(frame: SensorFrame, name: str) -> np.ndarray:
    if name in frame.channel_names:
        return frame.channel(name)
    if name in frame.label_names:
        return frame.label(name).astype(np.float64)
    raise SchemaError(f"unknown variable {name!r}")


def pearson_matrix(frame: SensorFrame, variables: list[str] | tuple[str, ...]) -> CorrelationMatrix:
    """Pearson r over the selected variables with population moments.

    Binary labels enter as 0/1 numeric series (point-biserial equivalent).
    """
    series = np.stack([_series_for(frame, v) for v in variables])
    if series.shape[1] < 2:
        raise DegenerateDataError("need at least 2 rows for correlation")
    if np.isnan(series).any():
        raise DegenerateDataError("missing values among selected variables; clean first")
    mean = series.mean(axis=1, keepdims=True)
    centered = series - mean
    std = np.sqrt((centered ** 2).mean(axis=1))
    for v, s in zip(variables, std):
        if s == 0.0:
            raise DegenerateDataError(f"variable {v!r} has zero variance")
    cov = centered @ centered.T / series.shape[1]
    r = cov / np.outer(std, std)
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    r = (r + r.T) / 2.0
    return CorrelationMatrix(tuple(variables), r)


def select_features(matrix: CorrelationMatrix, pair_threshold: float = 0.9,
                    class_names: tuple[str, ...] = STANDARD_LABELS) -> FeatureSet:
    """Drop redundant features by greedy elimination of correlated pairs.

    Feature pairs are visited in descending |r|; while a surviving pair has
    |r| > pair_threshold, the member with the smaller max |r| to any class is
    dropped (ties drop the later one in channel order). Survivors are
    returned in their original order.
    """
    if not (0.0 < pair_threshold < 1.0):
        raise ConfigError(f"pair_threshold must be in (0, 1), got {pair_threshold}")
    names = matrix.variable_names
    for cname in class_names:
        if cname not in names:
            raise SchemaError(f"class {cname!r} missing from correlation matrix")
    feat_idx = [i for i, nm in enumerate(names) if nm not in class_names]
    cls_idx = [names.index(c) for c in class_names]
    m = matrix.matrix
    class_strength = {i: max(abs(m[i, j]) for j in cls_idx) for i in feat_idx}

    pairs = sorted(
        ((i, j) for a, i in enumerate(feat_idx) for j in feat_idx[a + 1:]),
        key=lambda p: (-abs(m[p[0], p[1]]), p[0], p[1]),
    )
    alive = set(feat_idx)
    dropped: list[tuple[str, str, float]] = []
    for i, j in pairs:
        if abs(m[i, j]) <= pair_threshold:
            break
        if i not in alive or j not in alive:
            continue
        # keep the member more correlated with the classes; tie drops the later
        victim = j if class_strength[j] <= class_strength[i] else i
        alive.remove(victim)
        keeper = i if victim == j else j
        dropped.append((names[victim], names[keeper], float(m[i, j])))
    survivors = tuple(names[i] for i in feat_idx if i in alive)
    note = f"pair_threshold={pair_threshold}; dropped " + (
        ", ".join(f"{v} (r={r:.3f} with {k})" for v, k, r in dropped) if dropped else "nothing"
    )
    return FeatureSet(survivors, note)
