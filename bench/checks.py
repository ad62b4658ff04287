"""Output checks, computed apart from the code under test.

Each ``check_*`` returns None when the output is right and a one-line reason
when it is not. The checks parse artifacts with the standard library, count
confusions themselves, and take invariants from what the method must do; no
check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# -- seeds -------------------------------------------------------------------

def mix64(z: int) -> int:
    """The splitmix64 finalizer, as documented in roomsense.rng."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def child_seed(seed: int, stream: int) -> int:
    """Documented child-seed step: mix64(mix64(seed) ^ (stream * GOLDEN))."""
    return mix64(mix64(seed) ^ ((stream * _GOLDEN) & _MASK))


def stream_integers(seed: int, bounds: list[int]) -> list[int]:
    """Successive ``integers(bound)`` draws of the counter stream for ``seed``."""
    return [mix64((seed + (i + 1) * _GOLDEN) & _MASK) % b for i, b in enumerate(bounds)]


# -- classification ----------------------------------------------------------

def f1_per_class(probs: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> list[float]:
    """F1 of each column of (N, K) probabilities against (N, K) 0/1 labels."""
    out = []
    for k in range(labels.shape[1]):
        tp = fp = fn = 0
        for p, y in zip(probs[:, k].tolist(), labels[:, k].tolist()):
            d = p >= threshold
            t = y >= 0.5
            tp += d and t
            fp += d and not t
            fn += t and not d
        out.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return out


def check_f1(name: str, own: list[float], reported: list[float] | None,
             gate: float) -> str | None:
    if reported is not None and any(abs(a - b) > 1e-12 for a, b in zip(own, reported)):
        return f"{name}: reported F1 {reported} differs from recount {own}"
    if min(own) < gate:
        return f"{name}: F1 {[round(f, 4) for f in own]} below gate {gate}"
    return None


def check_history(name: str, train_loss: list[float], valid_loss: list[float],
                  epochs: int) -> str | None:
    if len(train_loss) != epochs:
        return f"{name}: trained {len(train_loss)} epochs, asked for {epochs}"
    if not all(math.isfinite(v) for v in train_loss + valid_loss):
        return f"{name}: non-finite loss in history"
    return None


def check_reconstruction(mse: float, gate: float) -> str | None:
    if not mse < gate:
        return f"autoencoder held-out reconstruction MSE {mse:.4f} is not below {gate}"
    return None


def check_frozen(before: dict[str, np.ndarray], after: dict[str, np.ndarray]) -> str | None:
    if before.keys() != after.keys():
        return f"encoder buffers changed names: {sorted(before)} vs {sorted(after)}"
    moved = [k for k in before if before[k].tobytes() != after[k].tobytes()]
    if moved:
        return f"head training moved frozen encoder buffers {moved}"
    return None


def check_pca(features: np.ndarray, components: np.ndarray,
              explained: tuple[float, float]) -> str | None:
    """Top-2 components and explained fractions against numpy.linalg.eigh."""
    centered = features - features.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / features.shape[0])
    order = np.argsort(evals)[::-1]
    frac = evals[order[:2]] / evals.sum()
    for j in range(2):
        if abs(explained[j] - frac[j]) > 1e-9:
            return f"PCA explained[{j}] {explained[j]} vs eigh {frac[j]}"
        if abs(components[:, j] @ evecs[:, order[j]]) < 1 - 1e-9:
            return f"PCA component {j} is not the eigh eigenvector"
    return None


# -- frames and tracks -------------------------------------------------------

def read_frame_csv(path: Path) -> dict:
    """Timestamps, (C, N) values with NaN for empty cells, and (K, N) labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    labels = [i for i, h in enumerate(header) if h in ("person", "window_open")]
    channels = [i for i in range(1, len(header)) if i not in labels]
    cells = np.array([[math.nan if c == "" else float(c) for c in r[1:]] for r in body]).T
    return {
        "timestamps": np.array([int(r[0]) for r in body], dtype=np.int64),
        "channels": [header[i] for i in channels],
        "values": cells[[i - 1 for i in channels]],
        "labels": cells[[i - 1 for i in labels]].astype(np.int64),
    }


def check_no_missing(frame: dict) -> str | None:
    bad = int((~np.isfinite(frame["values"])).sum())
    return f"cleaned frame still has {bad} missing or non-finite cells" if bad else None


def read_track(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    names = doc["classes"]
    return {
        "timestamps": np.array(doc["timestamps"], dtype=np.int64),
        "classes": names,
        "probs": np.array([[math.nan if v is None else v for v in doc["probabilities"][n]]
                           for n in names], dtype=np.float64),
        "decisions": np.array([doc["decisions"][n] for n in names], dtype=np.int64),
        "threshold": doc["threshold"],
    }


def anchored_rows(timestamps: np.ndarray, length: int, max_gap_s: int) -> np.ndarray:
    """Rows a stride-1, first-position window of ``length`` anchors, gaps respected."""
    n = timestamps.shape[0]
    out = np.zeros(n, dtype=bool)
    start = 0
    for i in range(1, n + 1):
        if i == n or timestamps[i] - timestamps[i - 1] > max_gap_s:
            out[start:max(start, i - length + 1)] = True
            start = i
    return out


def windows_with_missing(values: np.ndarray, length: int) -> np.ndarray:
    """Rows whose first-position window of ``length`` holds a missing cell."""
    bad = np.isnan(values).any(axis=0)
    n = bad.shape[0]
    return np.array([bad[i:i + length].any() for i in range(n)], dtype=bool)


def check_track(track: dict, anchored: np.ndarray) -> str | None:
    probs, dec = track["probs"], track["decisions"]
    has = ~np.isnan(probs)
    want = (probs >= track["threshold"]).astype(np.int64)
    if (dec[has] != want[has]).any():
        return "track decision differs from probability >= threshold"
    if (has != anchored[None, :]).any():
        return "track probabilities present on rows no window anchors, or missing on anchored rows"
    if ((dec == -1) != ~anchored[None, :]).any():
        return "track -1 markers do not match the rows no window anchors"
    return None


def check_missing_marked(track: dict, missing: np.ndarray) -> str | None:
    rows = np.flatnonzero(missing)
    probs, dec = track["probs"][:, rows], track["decisions"][:, rows]
    confident = int(((dec != -1) | ~np.isnan(probs)).any(axis=0).sum())
    if confident:
        return (f"{confident} of {rows.size} rows whose window holds a missing cell "
                "carry a prediction instead of the no-prediction marker")
    return None


def check_probability_sample(track: dict, frame: dict, scaler: dict, model,
                             length: int, rows: np.ndarray) -> str | None:
    """Track probabilities at ``rows`` against predict_proba on own-sliced windows."""
    idx = [frame["channels"].index(c) for c in scaler["channels"]]
    mean = np.array(scaler["mean"])[:, None]
    std = np.array(scaler["std"])[:, None]
    scaled = (frame["values"][idx] - mean) / std
    x = np.stack([scaled[:, r:r + length] for r in rows])
    want = model.predict_proba(x).T
    got = track["probs"][:, rows]
    if not np.allclose(got, want, rtol=0.0, atol=1e-9):
        worst = np.nanmax(np.abs(got - want))
        return f"track probabilities differ from predict_proba by {worst:.3g}"
    return None


def runs_of(series: np.ndarray) -> list[tuple[int, int]]:
    """(value, length) of each maximal run."""
    out: list[list[int]] = []
    for v in series.tolist():
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return [(v, n) for v, n in out]


def check_smoothed(before: dict, after: dict, again: np.ndarray, width: int) -> str | None:
    """``again`` holds the decisions of ``after`` smoothed a second time."""
    if not np.array_equal(before["probs"], after["probs"], equal_nan=True):
        return "smoothing changed probabilities"
    if ((before["decisions"] == -1) != (after["decisions"] == -1)).any():
        return "smoothing moved a -1 marker"
    if not np.array_equal(after["decisions"], again):
        return "smoothing is not idempotent"
    for k, series in enumerate(after["decisions"]):
        runs = runs_of(series)
        for j in range(1, len(runs) - 1):
            left, right = runs[j - 1][0], runs[j + 1][0]
            if runs[j][0] in (0, 1) and runs[j][1] < width and left == right and left in (0, 1):
                return f"class {k}: flank-agreeing run of {runs[j][1]} < width {width} survives"
    return None


def track_f1(track: dict, labels: np.ndarray) -> list[float]:
    """F1 of each class's decisions against row labels, over predicted rows."""
    out = []
    for k in range(track["decisions"].shape[0]):
        rows = track["decisions"][k] >= 0
        out.append(f1_per_class(track["decisions"][k][rows][:, None].astype(float),
                                labels[k][rows][:, None].astype(float))[0])
    return out


# -- search ------------------------------------------------------------------

def check_tune(doc: dict, seed: int, grids: dict[str, list], trials: int) -> str | None:
    """Trial seeds and params from the documented derivation; best by max mean F1."""
    got = doc["trials"]
    if [t["index"] for t in got] != list(range(trials)):
        return f"tune logged trials {[t['index'] for t in got]}, asked for {trials}"
    keys = sorted(grids)
    for t in got:
        trial_seed = child_seed(seed, t["index"])
        picks = stream_integers(trial_seed, [len(grids[k]) for k in keys])
        want = {k: grids[k][i] for k, i in zip(keys, picks)}
        if t["seed"] != trial_seed or t["params"] != want:
            return (f"trial {t['index']}: seed/params {t['seed']}/{t['params']}, "
                    f"want {trial_seed}/{want}")
        if abs(t["f1_mean"] - sum(t["f1_per_class"]) / len(t["f1_per_class"])) > 1e-12:
            return f"trial {t['index']}: f1_mean is not the mean of f1_per_class"
    best = got[0]
    for t in got[1:]:
        if t["f1_mean"] > best["f1_mean"]:
            best = t
    if doc["best"] != best:
        return f"best trial is {doc['best']['index']}, want {best['index']}"
    return None
