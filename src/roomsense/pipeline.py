"""Window pipeline: gap/event segmentation, sliding windows, sequence labels,
leak-aware splits, and per-channel scaling.

The flow mirrors the experiment setup: a cleaned frame is cut into contiguous
segments (time gaps never hide inside a window), optionally under-sampled to
a +/-k context around positive events, slid into fixed-length sequences, and
labelled at a configurable position. Scalers are fit on the training portion
only and applied everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import container
from .errors import ConfigError, DegenerateDataError, IntegrityError, SchemaError, SplitError
from .frames import SensorFrame
from .rng import Rng
from .schema import dump, load

DEFAULT_MAX_GAP_S = 360  # three nominal 120 s periods


@dataclass(frozen=True)
class Segment:
    """Contiguous index range [start, end) of a parent frame."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ConfigError(f"invalid segment bounds [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class WindowSet:
    """Fixed-length sequences X (N, C, L) with binary labels Y (N, K)."""

    X: np.ndarray
    Y: np.ndarray
    channel_names: tuple[str, ...]
    class_names: tuple[str, ...]
    start_timestamps: np.ndarray
    label_position: str
    start_indices: np.ndarray | None = None
    scaler_note: str = ""

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.Y = np.ascontiguousarray(self.Y, dtype=np.float64)
        self.start_timestamps = np.asarray(self.start_timestamps, dtype=np.int64)
        n = self.X.shape[0]
        if self.Y.shape[0] != n or self.start_timestamps.shape[0] != n:
            raise IntegrityError("X, Y, and start timestamps must agree on N")
        if self.X.ndim != 3 or self.X.shape[1] != len(self.channel_names):
            raise IntegrityError(f"X shape {self.X.shape} does not match 'channel_names'")
        if self.Y.ndim != 2 or self.Y.shape[1] != len(self.class_names):
            raise IntegrityError(f"Y shape {self.Y.shape} does not match 'class_names'")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def length(self) -> int:
        return self.X.shape[2]

    def take(self, indices: np.ndarray) -> "WindowSet":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, X=self.X[idx], Y=self.Y[idx],
                       start_timestamps=self.start_timestamps[idx],
                       start_indices=None if self.start_indices is None
                       else self.start_indices[idx])

    def save(self, path: str | Path) -> None:
        """Write a ``roomsense.container``: the header holds the shapes, names,
        label position and scaler note; the blob holds X and Y as float64, then
        the start timestamps and start indices (none if absent) as int64."""
        idx = np.zeros(0, np.int64) if self.start_indices is None else self.start_indices
        header = {"x_shape": list(self.X.shape), "y_shape": list(self.Y.shape),
                  "channel_names": list(self.channel_names),
                  "class_names": list(self.class_names), "label_position": self.label_position,
                  "has_start_indices": self.start_indices is not None,
                  "scaler_note": self.scaler_note}
        container.save(path, header,
                       [self.X, self.Y, self.start_timestamps, np.asarray(idx, np.int64)])

    @staticmethod
    def load(path: str | Path) -> "WindowSet":
        h, (X, Y, ts, idx) = container.load(path, _WindowSidecar, "window-set sidecar", lambda h: [
            ("<f8", h.x_shape), ("<f8", h.y_shape), ("<i8", h.x_shape[:1]),
            ("<i8", h.x_shape[:1] if h.has_start_indices else (0,))])
        return WindowSet(X=X, Y=Y, channel_names=h.channel_names, class_names=h.class_names,
                         start_timestamps=ts, label_position=h.label_position,
                         start_indices=idx if h.has_start_indices else None,
                         scaler_note=h.scaler_note)


@dataclass(frozen=True)
class _WindowSidecar:
    x_shape: tuple[int, int, int]
    y_shape: tuple[int, int]
    channel_names: tuple[str, ...]
    class_names: tuple[str, ...]
    label_position: str
    has_start_indices: bool
    blob_sha256: str
    scaler_note: str = ""


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def undersample(labels: np.ndarray, k: int) -> list[Segment]:
    """Keep a +/-k sample context around every positive row.

    Every index where any class is 1 is expanded to [i-k, i+k], clipped to
    bounds; overlapping intervals are merged. All-negative input yields [].
    """
    if k < 0:
        raise ConfigError("context size k must be >= 0")
    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = labels[:, None]
    n = labels.shape[0]
    marked = np.flatnonzero((labels > 0).any(axis=1))
    if marked.size == 0:
        return []
    starts = np.maximum(marked - k, 0)
    ends = np.minimum(marked + k + 1, n)
    # both bounds grow with the marked index, so an interval joins the one
    # before it exactly when it starts at or before that one's end
    first = np.flatnonzero(np.concatenate(([True], starts[1:] > ends[:-1])))
    last = np.append(first[1:] - 1, marked.size - 1)
    merged = zip(starts[first].tolist(), ends[last].tolist())
    return [Segment(s, e) for s, e in merged]


def split_on_gaps(frame: SensorFrame, max_gap_s: int = DEFAULT_MAX_GAP_S) -> list[Segment]:
    """Cut the frame wherever consecutive timestamps differ by more than max_gap_s."""
    if max_gap_s <= 0:
        raise ConfigError("max_gap_s must be positive")
    n = len(frame)
    if n == 0:
        return []
    cuts = np.flatnonzero(np.diff(frame.timestamps) > max_gap_s) + 1
    bounds = [0, *cuts.tolist(), n]
    return [Segment(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def slide(segment: Segment, length: int, stride: int = 1) -> list[int]:
    """Window start indices {start, start+stride, ...} with start+L <= end."""
    if length < 1 or stride < 1:
        raise ConfigError("length and stride must be >= 1")
    return list(range(segment.start, segment.end - length + 1, stride))


def window_label(window_labels: np.ndarray, position: str = "first") -> np.ndarray:
    """Reduce an (L, K) per-step binary label block to one (K,) label.

    'first' takes row 0, 'last' row L-1, 'mean' thresholds the per-class
    arithmetic mean at >= 0.5. A stack of blocks (..., L, K) reduces to
    (..., K) labels, one per block; a 1-D block is one class.
    """
    wl = np.asarray(window_labels, dtype=np.float64)
    if wl.ndim == 1:
        wl = wl[:, None]
    if position == "first":
        out = wl[..., 0, :]
    elif position == "last":
        out = wl[..., -1, :]
    elif position == "mean":
        out = (wl.mean(axis=-2) >= 0.5).astype(np.float64)
    else:
        raise ConfigError(f"label position must be first|mean|last, got {position!r}")
    return out.astype(np.float64)


def stride1_windows(values: np.ndarray, length: int) -> np.ndarray:
    """(N-L+1, C, L) read-only view of every stride-1 window of a (C, N) series.

    Indexing the view with start indices copies just those windows; a series
    shorter than ``length`` has none.
    """
    if values.shape[1] < length:
        return np.empty((0, values.shape[0], length), dtype=values.dtype)
    return sliding_window_view(values, length, axis=1).transpose(1, 0, 2)


def label_offset(length: int, position: str) -> int:
    """Row offset inside a window where its label (and prediction) anchors."""
    if position == "first":
        return 0
    if position == "last":
        return length - 1
    if position == "mean":
        return length // 2
    raise ConfigError(f"label position must be first|mean|last, got {position!r}")


def build_windows(frame: SensorFrame, channels: list[str] | tuple[str, ...],
                  length: int, stride: int = 1, position: str = "first",
                  undersample_k: int | None = None,
                  max_gap_s: int = DEFAULT_MAX_GAP_S) -> WindowSet:
    """Segment, optionally under-sample, slide, and label a frame.

    Sliding runs independently inside each segment so no window crosses a
    time gap or an under-sampling boundary; windows from all segments are
    concatenated in time order.
    """
    sel = frame.select_channels(channels)
    segments = split_on_gaps(sel, max_gap_s)
    label_mat = sel.label_matrix()
    if undersample_k is not None:
        refined: list[Segment] = []
        for seg in segments:
            for sub in undersample(label_mat[seg.start:seg.end], undersample_k):
                refined.append(Segment(seg.start + sub.start, seg.start + sub.end))
        segments = refined
    starts: list[int] = []
    for seg in segments:
        starts.extend(slide(seg, length, stride))
    start_idx = np.asarray(starts, dtype=np.int64)
    X = stride1_windows(sel.values, length)[start_idx]
    # reducing the whole view labels every window without copying (n, L, K) blocks
    Y = window_label(stride1_windows(label_mat.T, length).swapaxes(1, 2), position)[start_idx]
    return WindowSet(
        X=X, Y=Y,
        channel_names=tuple(channels),
        class_names=sel.label_names,
        start_timestamps=sel.timestamps[start_idx],
        label_position=position,
        start_indices=start_idx,
    )


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test ratios and seed of a random split after segmentation."""

    ratios: tuple[float, float, float] = (0.7, 0.2, 0.1)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise ConfigError(f"split ratios must be three numbers, got {len(self.ratios)}")
        if any(r <= 0 for r in self.ratios):
            raise ConfigError("split ratios must be positive")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError("split ratios must sum to 1")


def split_random(windows: WindowSet, spec: SplitSpec) -> tuple[WindowSet, WindowSet, WindowSet]:
    """Seeded uniform shuffle, then contiguous train/valid/test cut."""
    n = len(windows)
    if n < 10:
        raise SplitError(f"need at least 10 windows to split, got {n}")
    perm = Rng(spec.seed).permutation(n)
    n_train = int(np.floor(n * spec.ratios[0]))
    n_valid = int(np.floor(n * spec.ratios[1]))
    n_test = n - n_train - n_valid
    if min(n_train, n_valid, n_test) < 1:
        raise SplitError(f"split of {n} windows gives an empty part")
    return (
        windows.take(perm[:n_train]),
        windows.take(perm[n_train:n_train + n_valid]),
        windows.take(perm[n_train + n_valid:]),
    )


def split_fraction(windows: WindowSet, first_fraction: float, seed: int) -> tuple[WindowSet, WindowSet]:
    """Two-way seeded shuffle split (plumbing used for train/valid carving)."""
    if not (0.0 < first_fraction < 1.0):
        raise ConfigError("first_fraction must be in (0, 1)")
    n = len(windows)
    perm = Rng(seed).permutation(n)
    cut = int(np.floor(n * first_fraction))
    if cut < 1 or cut >= n:
        raise SplitError(f"fraction {first_fraction} empties one side of {n} windows")
    return windows.take(perm[:cut]), windows.take(perm[cut:])


def split_time(frame: SensorFrame, cut_timestamp: int) -> tuple[SensorFrame, SensorFrame]:
    """Split a frame at a timestamp, before any segmentation.

    Rows with timestamp < cut go to the first frame, >= cut to the second;
    windowing each side independently guarantees no window crosses the cut.
    """
    ts = frame.timestamps
    if cut_timestamp <= ts[0] or cut_timestamp > ts[-1]:
        raise ConfigError(
            f"cut {cut_timestamp} outside the frame's time range ({int(ts[0])}, {int(ts[-1])}]"
        )
    pivot = int(np.searchsorted(ts, cut_timestamp, side="left"))
    return frame.slice_rows(0, pivot), frame.slice_rows(pivot, len(frame))


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalerParams:
    """Per-channel standard (mean/std) or min-max statistics."""

    kind: str
    channel_names: tuple[str, ...]
    stat_a: np.ndarray  # mean or min
    stat_b: np.ndarray  # std or max

    def __post_init__(self):
        if self.kind not in ("standard", "minmax"):
            raise ConfigError(f"scaler kind must be standard|minmax, got {self.kind!r}")
        object.__setattr__(self, "stat_a", np.asarray(self.stat_a, dtype=np.float64))
        object.__setattr__(self, "stat_b", np.asarray(self.stat_b, dtype=np.float64))
        for key, stat in zip(_STAT_KEYS[self.kind], (self.stat_a, self.stat_b)):
            if stat.shape != (len(self.channel_names),):
                raise IntegrityError(f"scaler key {key!r} must hold one number per channel")

    def to_json(self) -> str:
        key_a, key_b = _STAT_KEYS[self.kind]
        return dump({"kind": self.kind, "channels": list(self.channel_names),
                     key_a: self.stat_a.tolist(), key_b: self.stat_b.tolist()})

    @staticmethod
    def from_json(text: str) -> "ScalerParams":
        doc = load(_ScalerDoc, text, "scaler")
        if doc.kind not in _STAT_KEYS:
            raise IntegrityError(f"scaler key 'kind' must be standard or minmax, got {doc.kind!r}")
        return ScalerParams(doc.kind, doc.channels,
                            *(getattr(doc, key) for key in _STAT_KEYS[doc.kind]))


_STAT_KEYS = {"standard": ("mean", "std"), "minmax": ("min", "max")}


@dataclass(frozen=True)
class _ScalerDoc:
    kind: str
    channels: tuple[str, ...]
    mean: tuple[float, ...] = ()
    std: tuple[float, ...] = ()
    min: tuple[float, ...] = ()
    max: tuple[float, ...] = ()


def fit_scaler(kind: str, data: SensorFrame | WindowSet) -> ScalerParams:
    """Fit per-channel statistics; call this on the training portion only."""
    if isinstance(data, SensorFrame):
        names = data.channel_names
        per_channel = data.values  # (C, N)
        flat = [per_channel[c] for c in range(len(names))]
    else:
        names = data.channel_names
        flat = [data.X[:, c, :].ravel() for c in range(len(names))]
    a = np.empty(len(names))
    b = np.empty(len(names))
    for c, series in enumerate(flat):
        if np.isnan(series).any():
            raise DegenerateDataError(f"channel {names[c]!r} has missing values; clean first")
        if kind == "standard":
            a[c] = series.mean()
            b[c] = np.sqrt(((series - a[c]) ** 2).mean())
            if b[c] == 0.0:
                raise DegenerateDataError(f"channel {names[c]!r} has zero variance")
        elif kind == "minmax":
            a[c] = series.min()
            b[c] = series.max()
            if a[c] == b[c]:
                raise DegenerateDataError(f"channel {names[c]!r} is constant")
        else:
            raise ConfigError(f"scaler kind must be standard|minmax, got {kind!r}")
    return ScalerParams(kind, tuple(names), a, b)


def _scale_arrays(scaler: ScalerParams, values: np.ndarray, channel_axis: int) -> np.ndarray:
    shape = [1] * values.ndim
    shape[channel_axis] = -1
    a = scaler.stat_a.reshape(shape)
    b = scaler.stat_b.reshape(shape)
    return (values - a) / (b if scaler.kind == "standard" else b - a)


def transform(scaler: ScalerParams, data: SensorFrame | WindowSet) -> SensorFrame | WindowSet:
    """Apply train statistics on a frame or window set."""
    if tuple(data.channel_names) != scaler.channel_names:
        raise SchemaError(
            f"channel mismatch: scaler has {scaler.channel_names}, data has {tuple(data.channel_names)}"
        )
    if isinstance(data, SensorFrame):
        return replace(data, values=_scale_arrays(scaler, data.values, 0))
    return replace(data, X=_scale_arrays(scaler, data.X, 1), scaler_note=f"{scaler.kind} scaler")
