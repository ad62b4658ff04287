"""Named parameter buffers, Adam, and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, TrainingDivergedError


@dataclass
class Param:
    """One named float64 buffer with a paired gradient buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray
    trainable: bool = True


class ParamStore:
    """Ordered registry of named parameter buffers.

    Layers hold Param references; the store is the single place the
    optimizer, freezing, checkpointing, and parameter accounting touch.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> Param:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        value = np.ascontiguousarray(value, dtype=np.float64)
        p = Param(name, value, np.zeros_like(value), trainable)
        self._params[name] = p
        return p

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def set_trainable(self, flag: bool, prefix: str = "") -> None:
        for p in self._params.values():
            if p.name.startswith(prefix):
                p.trainable = flag

    def trainable_count(self) -> int:
        return sum(p.value.size for p in self._params.values() if p.trainable)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self._params.values()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, value in snap.items():
            self._params[name].value[...] = value


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, store: ParamStore, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in store}
        self.v = {p.name: np.zeros_like(p.value) for p in store}


def adam_step(store: ParamStore, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over the trainable buffers.

    Frozen buffers, their moments and their gradients (no backward pass writes
    one) stay untouched; each updated buffer's gradient is zeroed afterwards.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for p in store:
        if not p.trainable:
            continue
        g = p.grad
        if not np.isfinite(g).all():
            raise TrainingDivergedError(
                f"non-finite gradient in buffer {p.name!r}", buffer=p.name)
        m = state.m[p.name]
        v = state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        g[...] = 0.0


def cosine_lr(step: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at step == total."""
    if total < 1:
        raise ConfigError("total steps must be >= 1")
    if not (0 <= step <= total):
        raise ConfigError(f"step {step} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total))
