"""Deterministic pseudo-random numbers, bit-stable across platforms.

All randomness in the library (splits, weight init, dropout masks, synthetic
data, search sampling) flows through the splitmix64 counter stream defined
here, so identical seeds give identical bits on every platform and numpy
version.

Algorithm
---------
The raw stream for seed ``s`` is ``out[i] = mix64(s + (i+1) * GOLDEN)`` for
i = 0, 1, ..., where GOLDEN = 0x9E3779B97F4A7C15 and ``mix64`` is the
splitmix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2**64). This is the sequential splitmix64 generator
written in closed form over a counter, which makes it vectorizable.

Derived quantities:

- uniform doubles in [0, 1): ``(raw >> 11) * 2**-53``
- permutations: stable argsort of the next n raw outputs
- normals: Box-Muller over uniform pairs, u1 shifted into (0, 1]
- child seeds: ``derive_seed(seed, k) = mix64(mix64(seed) ^ (k * GOLDEN))``
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 arithmetic is modular by design
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, stream: int) -> int:
    """Derive an independent child seed (the documented splitmix step)."""
    s = _mix64(np.uint64(seed & _U64_MASK))
    with np.errstate(over="ignore"):
        k = np.uint64(stream & _U64_MASK) * _GOLDEN
    return int(_mix64(s ^ k))


class Rng:
    """Stateful view over the splitmix64 counter stream for one seed."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _U64_MASK)
        self._count = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs of the stream."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray | float:
        shape = () if size is None else size
        n = int(np.prod(shape)) if shape != () else 1
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        out = low + (high - low) * u
        if size is None:
            return float(out[0])
        return out.reshape(shape)

    def normal(self, mean: float = 0.0, std: float = 1.0, size=None) -> np.ndarray | float:
        shape = () if size is None else size
        n = int(np.prod(shape)) if shape != () else 1
        m = (n + 1) // 2
        r = self.raw(2 * m)
        # u1 in (0, 1] so log() is finite; u2 in [0, 1)
        u1 = ((r[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (r[m:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        out = mean + std * z
        if size is None:
            return float(out[0])
        return out.reshape(shape)

    def integers(self, bound: int, size=None) -> np.ndarray | int:
        """Integers in [0, bound) via modulo (bias negligible for small bounds)."""
        if bound <= 0:
            raise ConfigError(f"integers bound must be positive, got {bound}")
        shape = () if size is None else size
        n = int(np.prod(shape)) if shape != () else 1
        out = (self.raw(n) % np.uint64(bound)).astype(np.int64)
        if size is None:
            return int(out[0])
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n): stable argsort of n raw outputs."""
        return np.argsort(self.raw(n), kind="stable")

    def spawn(self, stream: int) -> "Rng":
        """Independent child generator (documented splitmix derivation)."""
        return Rng(derive_seed(int(self._seed), stream))
