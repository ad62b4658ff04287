"""Shared helpers: finite-difference oracles and small data builders."""

from __future__ import annotations

import roomsense  # noqa: F401  (first: it sets BLAS threads before numpy loads)

import numpy as np

from roomsense.frames import SensorFrame


def numeric_gradient(loss_fn, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every element of arr.

    arr is perturbed in place and restored, so loss_fn must read it live.
    """
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom)


def toy_frame(values_by_channel: dict[str, list], labels_by_name: dict[str, list] | None = None,
              start: int = 1_700_000_000, period: int = 120) -> SensorFrame:
    """Small frame from channel name -> series (NaN allowed) mappings."""
    channels = tuple(values_by_channel)
    values = np.array([values_by_channel[c] for c in channels], dtype=np.float64)
    n = values.shape[1]
    labels = labels_by_name or {}
    return SensorFrame(
        timestamps=start + period * np.arange(n, dtype=np.int64),
        channel_names=channels,
        values=values,
        label_names=tuple(labels),
        label_values=np.array([labels[k] for k in labels], dtype=np.int64).reshape(
            len(labels), n),
    )
