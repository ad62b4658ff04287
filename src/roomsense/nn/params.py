"""Named parameter buffers in one flat arena, Adam, and the cosine schedule.

Every buffer's value and gradient are views into two float64 arenas laid out
in store order, which is the checkpoint blob's order. So a snapshot, a
restore and a checkpoint's bytes are one copy each, and Adam updates each run
of adjacent trainable buffers in fixed-size blocks instead of buffer by
buffer.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, TrainingDivergedError

# elements per Adam block: its temporaries stay in cache, and no per-buffer loop
ADAM_BLOCK = 16_384
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    optimizer, freezing, checkpointing, and parameter accounting touch. A
    store that outgrows its arenas moves every buffer into larger ones (a
    Param's arrays are replaced, the Param stays), so hold the Param, not its
    arrays, while a model is being built.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self._starts: list[int] = []  # arena offset of each buffer, in store order
        self._size = 0
        self._values = np.zeros(0)
        self._grads = np.zeros(0)

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> Param:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        value = np.asarray(value, dtype=np.float64)
        start, stop = self._size, self._size + value.size
        if stop > self._values.size:
            self._move(max(stop, 2 * self._values.size))
        self._size = stop
        p = Param(name, self._values[start:stop].reshape(value.shape),
                  self._grads[start:stop].reshape(value.shape), trainable)
        p.value[...] = value
        self._params[name] = p
        self._starts.append(start)
        return p

    def _move(self, capacity: int) -> None:
        """Copy both arenas into new ones of ``capacity`` elements and re-view every buffer."""
        values, grads = np.zeros(capacity), np.zeros(capacity)
        values[:self._size] = self.value_arena
        grads[:self._size] = self.grad_arena
        self._values, self._grads = values, grads
        for p, view, grad in zip(self._params.values(), self.views(values), self.views(grads)):
            p.value, p.grad = view, grad

    @property
    def value_arena(self) -> np.ndarray:
        """Every buffer's values, concatenated in store order (a view)."""
        return self._values[:self._size]

    @property
    def grad_arena(self) -> np.ndarray:
        """Every buffer's gradient, concatenated in store order (a view)."""
        return self._grads[:self._size]

    def views(self, arena: np.ndarray) -> list[np.ndarray]:
        """Per buffer, in store order, the view of ``arena`` that lines up with it."""
        return [arena[start:start + p.value.size].reshape(p.value.shape)
                for p, start in zip(self._params.values(), self._starts)]

    def trainable_runs(self) -> list[tuple[int, int]]:
        """Arena (start, stop) of each maximal run of adjacent trainable buffers."""
        runs: list[tuple[int, int]] = []
        for p, start in zip(self._params.values(), self._starts):
            if not p.trainable:
                continue
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], start + p.value.size)
            else:
                runs.append((start, start + p.value.size))
        return runs

    def name_at(self, index: int) -> str:
        """The name of the buffer that holds arena element ``index``."""
        return self.names()[bisect.bisect_right(self._starts, index) - 1]

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

    def set_trainable(self, flag: bool, prefix: str = "") -> None:
        for p in self._params.values():
            if p.name.startswith(prefix):
                p.trainable = flag

    def trainable_count(self) -> int:
        return sum(p.value.size for p in self._params.values() if p.trainable)

    def snapshot(self) -> np.ndarray:
        return self.value_arena.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.value_arena[...] = snap


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    The moments are arenas laid out as the store's values; ``store.views``
    gives their per-buffer views.
    """

    def __init__(self, store: ParamStore):
        self.t = 0
        self.m_arena = np.zeros_like(store.value_arena)
        self.v_arena = np.zeros_like(store.value_arena)


def adam_step(store: ParamStore, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over the trainable buffers.

    Frozen buffers, their moments and their gradients (no backward pass writes
    one) stay untouched; each updated buffer's gradient is zeroed afterwards.
    Each block's arithmetic is the per-buffer update's, element by element, so
    the result does not depend on the blocking.
    """
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    values, grads = store.value_arena, store.grad_arena
    step_buf = np.empty(min(ADAM_BLOCK, values.size))
    denom_buf = np.empty_like(step_buf)
    for run_start, run_stop in store.trainable_runs():
        for start in range(run_start, run_stop, ADAM_BLOCK):
            stop = min(start + ADAM_BLOCK, run_stop)
            g = grads[start:stop]
            finite = np.isfinite(g)
            if not finite.all():
                name = store.name_at(start + int(np.argmin(finite)))
                raise TrainingDivergedError(
                    f"non-finite gradient in buffer {name!r}", buffer=name)
            m, v = state.m_arena[start:stop], state.v_arena[start:stop]
            step, denom = step_buf[:stop - start], denom_buf[:stop - start]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=step)
            v += np.multiply(step, g, out=step)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            np.divide(m, bias1, out=step)
            step *= lr
            step /= denom
            values[start:stop] -= step
            g[...] = 0.0


def cosine_lr(step: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at step == total."""
    if total < 1:
        raise ConfigError("total steps must be >= 1")
    if not (0 <= step <= total):
        raise ConfigError(f"step {step} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total))
