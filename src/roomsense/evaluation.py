"""Metrics, confusion matrices, prediction timelines, and spike smoothing."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrityError
from .frames import CSV_BLOCK_ROWS, SensorFrame, csv_blocks, csv_line
from .nn.layers import chunked
from .pipeline import (
    DEFAULT_MAX_GAP_S,
    ScalerParams,
    WindowSet,
    label_offset,
    slide,
    split_on_gaps,
    stride1_windows,
    transform,
)
from .schema import dump, load

NO_PREDICTION = -1


def feature_matrix(model, X: np.ndarray) -> np.ndarray:
    """Model feature space (GAP output / last hidden / latent); non-finite windows raise."""
    return model.feature_space(X)


@dataclass(frozen=True)
class Metrics:
    class_names: tuple[str, ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    accuracy: float

    def to_json(self) -> str:
        return dump({"accuracy": self.accuracy, "classes": {
            name: {"precision": p, "recall": r, "f1": f, "support": s}
            for name, p, r, f, s in zip(self.class_names, self.precision, self.recall,
                                        self.f1, self.support)}})


@dataclass(frozen=True)
class ClassConfusion:
    class_name: str
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusions_to_json(confusions: list[ClassConfusion]) -> str:
    return dump({c.class_name: {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn}
                 for c in confusions})


def evaluate(model, test: WindowSet, threshold: float = 0.5) -> tuple[Metrics, list[ClassConfusion]]:
    """Per-class precision/recall/F1 and element-wise accuracy at a threshold in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:  # NaN is not
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold!r}")
    probs = model.predict_proba(test.X)
    decisions = probs >= threshold
    truth = test.Y >= 0.5
    names = test.class_names if test.class_names else tuple(
        f"class{k}" for k in range(truth.shape[1]))
    precision, recall, f1, support = [], [], [], []
    confusions = []
    for k, name in enumerate(names):
        d = decisions[:, k]
        y = truth[:, k]
        tp = int(np.sum(d & y))
        fp = int(np.sum(d & ~y))
        fn = int(np.sum(~d & y))
        tn = int(np.sum(~d & ~y))
        if tp + fn == 0:
            warnings.warn(f"class {name!r} has zero support in the test set")
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(tp + fn)
        confusions.append(ClassConfusion(name, tp, fp, fn, tn))
    accuracy = float((decisions == truth).mean())
    return Metrics(tuple(names), tuple(precision), tuple(recall), tuple(f1),
                   tuple(support), accuracy), confusions


def _json_layout(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Formatted JSON values (or ``"key": value`` members, with ``brackets="{}"``)
    laid out as ``json.dumps(..., indent=2)`` lays out a list (an object) whose
    first line is indented by ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


@dataclass(frozen=True)
class _TrackDoc:
    threshold: float
    timestamps: list[int]
    classes: tuple[str, ...]
    probabilities: dict[str, list[float | None]]
    decisions: dict[str, list[int]]


@dataclass
class PredictionTrack:
    """Per-timestamp class probabilities and thresholded decisions.

    Timestamps with no prediction carry NaN probability and decision -1.
    Wherever a probability exists, decision == (probability >= threshold).
    """

    timestamps: np.ndarray
    class_names: tuple[str, ...]
    probabilities: np.ndarray  # (K, N) float64, NaN marks no prediction
    decisions: np.ndarray      # (K, N) int8, -1 marks no prediction
    threshold: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        self.decisions = np.asarray(self.decisions, dtype=np.int8)

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def texts(self) -> tuple[str, str]:
        """The ``track.json`` and ``track.csv`` texts, from one ``format_cells``
        call per column per block of ``CSV_BLOCK_ROWS`` rows.

        ``track.json`` is the document ``json.dumps(doc, sort_keys=True,
        indent=2)`` writes for this track: one value per line, ``null`` for
        no prediction, per-class objects in sorted class-name order.
        ``track.csv`` is written like a frame CSV: ``timestamp``, then a
        ``prob_<class>``, ``decision_<class>`` pair per class, with an empty
        cell for no prediction and the header quoted by ``csv.writer``.
        """
        header = ["timestamp"]
        columns = [self.timestamps]
        for k, name in enumerate(self.class_names):
            header += [f"prob_{name}", f"decision_{name}"]
            columns += [self.probabilities[k], self.decisions[k]]
        indents = ["  "] + ["    "] * (len(columns) - 1)  # where each JSON list opens
        csv_text = [csv_line(header)]
        json_blocks: list[list[str]] = [[] for _ in columns]
        for lo, cells, rows_text in csv_blocks(columns):
            csv_text.append(rows_text)
            for column, column_cells, indent, blocks in zip(columns, cells, indents, json_blocks):
                if column.dtype.kind == "f":  # a probability's empty cell is JSON's null
                    for i in np.flatnonzero(np.isnan(column[lo:lo + CSV_BLOCK_ROWS])).tolist():
                        column_cells[i] = "null"
                blocks.append(f",\n{indent}  ".join(column_cells))
        lists = [_json_layout(blocks, indent) for blocks, indent in zip(json_blocks, indents)]
        # a repeated class name keeps its last row, as a dict built in track order does
        rows = {name: k for k, name in enumerate(self.class_names)}

        def per_class(offset: int) -> str:
            return _json_layout([f"{json.dumps(name)}: {lists[1 + 2 * k + offset]}"
                                 for name, k in sorted(rows.items())], "  ", "{}")

        fields = {  # in sorted key order
            "classes": _json_layout(list(map(json.dumps, self.class_names)), "  "),
            "decisions": per_class(1),
            "probabilities": per_class(0),
            "threshold": json.dumps(self.threshold),
            "timestamps": lists[0],
        }
        json_text = _json_layout([f'"{key}": {text}' for key, text in fields.items()], "", "{}")
        return json_text + "\n", "".join(csv_text)

    def to_json(self) -> str:
        return self.texts()[0]

    def to_csv(self) -> str:
        return self.texts()[1]

    @staticmethod
    def from_json(text: str) -> "PredictionTrack":
        """Read ``to_json`` output; IntegrityError names a key that is missing,
        of the wrong type, or whose per-class list does not match ``timestamps``,
        and a class whose probabilities are not null or in [0, 1], or are null
        where its decision is not -1 or the other way round, and a threshold
        outside [0, 1]."""
        doc = load(_TrackDoc, text, "track")
        if not 0.0 <= doc.threshold <= 1.0:
            raise IntegrityError(f"track key 'threshold' must lie in [0, 1], not {doc.threshold}")
        names, n = doc.classes, len(doc.timestamps)
        for key, per_class in (("probabilities", doc.probabilities), ("decisions", doc.decisions)):
            for name in names:
                if name not in per_class:
                    raise IntegrityError(f"track is missing key {key}.{name!r}")
                if len(per_class[name]) != n:
                    raise IntegrityError(f"track key {key}.{name!r} has {len(per_class[name])} "
                                         f"entries, 'timestamps' has {n}")
                if key == "decisions" and not set(per_class[name]) <= {NO_PREDICTION, 0, 1}:
                    raise IntegrityError(f"track key {key}.{name!r} must hold -1, 0 or 1")
        # a JSON null becomes NaN; load has refused NaN literals
        shape = (len(names), n)
        probs = np.array([doc.probabilities[name] for name in names], np.float64).reshape(shape)
        decs = np.array([doc.decisions[name] for name in names], dtype=np.int8).reshape(shape)
        for k, name in enumerate(names):
            missing = np.isnan(probs[k])
            if ((probs[k] < 0) | (probs[k] > 1)).any():
                raise IntegrityError(f"track key probabilities.{name!r} must hold null "
                                     "or numbers in [0, 1]")
            if not np.array_equal(missing, decs[k] == NO_PREDICTION):
                raise IntegrityError(f"track key probabilities.{name!r} must be null exactly "
                                     f"where decisions.{name!r} is -1")
        try:
            timestamps = np.asarray(doc.timestamps, dtype=np.int64)
        except OverflowError:
            raise IntegrityError("track key 'timestamps' must fit in 64 bits") from None
        return PredictionTrack(timestamps, names, probs, decs, doc.threshold)


def predict_timeline(model, frame: SensorFrame, scaler: ScalerParams, length: int,
                     position: str = "first", threshold: float = 0.5,
                     max_gap_s: int = DEFAULT_MAX_GAP_S) -> PredictionTrack:
    """Stride-1 window predictions placed at their label-position timestamp.

    Windows never cross gap boundaries, and a window holding any missing or
    non-finite cell is not predicted; rows no predicted window maps to carry
    the explicit no-prediction marker. ``length`` must be at least 1 and
    ``threshold`` must lie in [0, 1].
    """
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold!r}")
    sel = frame.select_channels(scaler.channel_names)
    scaled = transform(scaler, sel)
    k = getattr(getattr(model, "config", None), "classes", None)
    if k is not None and len(frame.label_names) == k:
        names = frame.label_names
    elif k is not None:
        names = tuple(f"class{j}" for j in range(k))
    else:
        names = frame.label_names or ("class0",)
    n = len(frame)
    probs = np.full((len(names), n), np.nan)
    decisions = np.full((len(names), n), NO_PREDICTION, dtype=np.int8)
    if n < length:
        warnings.warn(f"frame of {n} rows is shorter than window length {length}; "
                      "empty track")
        return PredictionTrack(frame.timestamps, names, probs, decisions, threshold)
    offset = label_offset(length, position)
    windows = stride1_windows(scaled.values, length)
    # bad[i] counts non-finite rows before row i, so a window's count is a difference
    bad = np.concatenate([[0], np.cumsum(~np.isfinite(scaled.values).all(axis=0))])
    for seg in split_on_gaps(scaled, max_gap_s):
        starts = np.asarray(slide(seg, length, stride=1), dtype=np.int64)
        starts = starts[bad[starts + length] == bad[starts]]
        if starts.size:  # chunked copies one chunk of windows out of the view at a time
            p = chunked(model.predict_proba, windows, starts)
            probs[:, starts + offset] = p.T
            decisions[:, starts + offset] = (p.T >= threshold).astype(np.int8)
    return PredictionTrack(frame.timestamps, names, probs, decisions, threshold)


def _runs(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of ``series`` as (values, lengths)."""
    if not series.size:
        return series[:0], np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.flatnonzero(series[1:] != series[:-1]) + 1))
    return series[starts], np.diff(starts, append=series.size)


def _smooth_series(series: np.ndarray, width: int) -> np.ndarray:
    """Rectify spikes in one left-to-right pass over the runs.

    Only 0/1 runs strictly shorter than ``width`` whose two flanking runs
    agree on a 0/1 value are flipped; edge runs and no-prediction markers are
    never touched (markers break runs). A flip merges the run and both flanks
    into one run, which becomes the left flank of the next candidate. Runs
    already passed stay final: a merged run is never flippable, because its
    left part was not. This gives the fixpoint of flipping the leftmost
    flippable run again and again, in time linear in the number of runs.
    """
    values, lengths = (a.tolist() for a in _runs(series))
    kept_values: list[int] = []
    kept_lengths: list[int] = []
    i = 0
    while i < len(values):
        value, length = values[i], lengths[i]
        if (kept_values and i + 1 < len(values) and value in (0, 1) and length < width
                and kept_values[-1] == values[i + 1] and values[i + 1] in (0, 1)):
            kept_lengths[-1] += length + lengths[i + 1]
            i += 2
        else:
            kept_values.append(value)
            kept_lengths.append(length)
            i += 1
    return np.repeat(np.asarray(kept_values, dtype=series.dtype), kept_lengths)


def smooth(track: PredictionTrack, width: int) -> PredictionTrack:
    """Flip decision runs shorter than ``width`` between agreeing flanks.

    Probabilities are untouched; width 1 is the identity.
    """
    if width < 1:
        raise ConfigError("smoothing width must be >= 1")
    decisions = track.decisions.copy()
    if width > 1:
        for k in range(decisions.shape[0]):
            decisions[k] = _smooth_series(decisions[k], width)
    return PredictionTrack(track.timestamps, track.class_names,
                           track.probabilities.copy(), decisions, track.threshold)
