"""Layer forward/backward pairs.

In the layers the models run, only a train-mode forward caches what backward
needs, on the instance, so a layer instance is exclusively owned during one
forward/backward cycle; an eval-mode forward (``train=False``) keeps no array
and reads only parameters, so several threads may run it on one model at once.
``chunked`` does that: a model call outside training runs its 512-window
chunks on the caller plus helper threads, and its output does not depend on
their number. An eval-mode LSTM steps through a whole chunk at a time and
holds one step of gates (2 MiB at H=128 and 512 windows) besides its hidden
states.
Every model passes ``train`` down; the ``train=True`` defaults of Conv1d, Relu,
Dense, MaxPool1dSame and Lstm serve only a layer run on its own (gradient tests).
Gradients accumulate into the ParamStore buffers (the optimizer zeroes them).

Shapes are logical (N, C, L) and inputs may have any strides. Conv1d,
BatchNorm1d and MaxPool1dSame compute in channels-last (N, L, C) buffers and
return transposed views of them; Relu keeps the layout it is given, and the
GlobalAvgPool gradient is a broadcast view.

A convolution takes one of two kernels, by the one rule L*L <= K*(L+K-1) that
compares their multiply counts. On short windows it is banded: the taps that
reach data go through a fixed 0/1 (L*L, taps) matrix into an (L*C, L*F) band,
so forward is one GEMM of the (N, L*C) input with the band, dx one GEMM with
its transpose, and dW one GEMM folded back through the same 0/1 matrix.
Otherwise it is K GEMMs, one per tap, over one zero-padded (N * (L + K - 1), C)
buffer. Neither builds an input-sized im2col matrix.

Conv1d, Dense and Lstm take ``backward(dout, input_grad=False)``, which skips
the input gradient and returns None; the training loop asks that of a model's
first layer, whose input gradient nobody reads.

Conventions that the parameter accounting depends on: convolutions carry no
bias (batch norm follows every convolution), batch norm contributes one gamma
and one beta per channel (running statistics are non-trainable state), dense
layers are biased, and an LSTM direction packs its four gates (i, f, g, o)
into single (4H, C), (4H, H) weight matrices plus ONE combined (4H,) bias.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

from .. import _BLAS_THREAD_VARS
from ..errors import ConfigError, DegenerateDataError, ShapeError
from ..rng import Rng
from .params import ParamStore

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
CHUNK_WINDOWS = 512
CHUNK_THREADS_MAX = 4  # caller included; bounds the chunks in flight on large machines


def _chunk_helper_count() -> int:
    """Helper threads for ``chunked``: one per usable core beyond the caller's,
    none unless every BLAS thread variable reads 1 (threads times BLAS threads
    would oversubscribe the cores). The environment stands for BLAS's state,
    which is true when the variables were set before numpy loaded."""
    if any(os.environ.get(var) != "1" for var in _BLAS_THREAD_VARS):
        return 0
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, CHUNK_THREADS_MAX) - 1


CHUNK_HELPERS = _chunk_helper_count()
_CHUNK_POOL = ThreadPoolExecutor(max_workers=CHUNK_THREADS_MAX - 1,
                                 thread_name_prefix="roomsense-chunk")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in tanh form, 0.5 * (1 + tanh(x / 2)).

    Exactly 0.5 at 0, saturates to 0/1 without overflow, and NaN stays NaN.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax_over_classes(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; rows sum to 1."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def head_probabilities(logits: np.ndarray, head_mode: str) -> np.ndarray:
    """Class probabilities from head logits: softmax for 'single_label', else sigmoid."""
    if head_mode == "single_label":
        return softmax_over_classes(logits)
    return sigmoid(logits)


def chunked(method, x: np.ndarray) -> np.ndarray:
    """``method`` over CHUNK_WINDOWS windows at a time, so its memory is one chunk's
    per thread; DegenerateDataError on zero windows or if any window holds a
    non-finite cell. Only a model's own ``predict_proba``, ``feature_space`` and
    ``encode`` call it.

    The caller and up to CHUNK_HELPERS pool threads each take the next chunk
    until none is left; each chunk is the same ``method(x[i:i + CHUNK_WINDOWS])``
    call and results join in chunk order, so the output does not depend on the
    thread count. Before returning or raising, the call cancels the helper tasks
    that never started and waits for the others, so a busy pool (or one whose
    threads a fork left behind) only means the caller runs every chunk itself.
    """
    if len(x) == 0:
        raise DegenerateDataError("the input holds zero windows")
    if not np.isfinite(x).all():
        raise DegenerateDataError("a window holds a missing or non-finite cell")
    starts = range(0, len(x), CHUNK_WINDOWS)
    results = [None] * len(starts)
    todo = iter(range(len(starts)))
    lock = threading.Lock()
    stop = threading.Event()  # set once a chunk fails or the caller is done

    def run_chunks():
        while not stop.is_set():
            with lock:
                k = next(todo, None)
            if k is None:
                return
            try:
                results[k] = method(x[starts[k]:starts[k] + CHUNK_WINDOWS])
            except BaseException:
                stop.set()
                raise

    tasks = [_CHUNK_POOL.submit(run_chunks)
             for _ in range(min(CHUNK_HELPERS, len(starts) - 1))]
    try:
        run_chunks()
    finally:
        stop.set()
        for task in tasks:
            task.cancel()
        wait(tasks)
    for task in tasks:
        if not task.cancelled():
            task.result()  # a helper's exception
    return np.concatenate(results)


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


@lru_cache(maxsize=64)
def _band_map(length: int, kernel: int) -> tuple[slice, np.ndarray]:
    """The taps of a length-preserving convolution that reach data in a window
    of ``length``, and the 0/1 (L*L, taps) matrix whose row (l', l) marks the
    tap that joins input row l' to output row l."""
    left_pad = (kernel - 1) // 2
    taps = slice(max(0, left_pad - length + 1), min(kernel, left_pad + length))
    rows = np.arange(length)
    tap = rows[:, None] - rows[None, :] + left_pad - taps.start  # (l', l)
    spread = (tap.reshape(-1, 1) == np.arange(taps.stop - taps.start)).astype(np.float64)
    spread.flags.writeable = False
    return taps, spread


class Conv1d:
    """1-D cross-correlation, stride 1, zero padding to preserve length.

    Left pad is floor((K-1)/2) and right pad ceil((K-1)/2), so the output has
    exactly the input length for every K >= 1. No bias term. Windows with
    L*L <= K*(L+K-1) take the banded kernel, longer ones the per-tap kernel.
    """

    def __init__(self, store: ParamStore, name: str, in_channels: int,
                 filters: int, kernel: int, rng: Rng):
        if kernel < 1:
            raise ConfigError("kernel size must be >= 1")
        limit = glorot_limit(in_channels * kernel, filters * kernel)
        self.w = store.add(f"{name}.w",
                           rng.uniform(-limit, limit, (filters, in_channels, kernel)))
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = kernel
        self.left_pad = (kernel - 1) // 2
        self._cache: tuple[np.ndarray, np.ndarray | None] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, length = x.shape
        if c != self.in_channels:
            raise ShapeError(f"{self.w.name}: expected {self.in_channels} channels, got {c}")
        k, lp, f = self.kernel, self.left_pad, self.filters
        if length * length <= k * (length + k - 1):
            reach, spread = _band_map(length, k)
            # band[(l', c), (l, f)] = w[f, c, l' - l + left_pad], zero off the band
            band = self.w.value[:, :, reach].reshape(f * c, -1) @ spread.T
            band = band.reshape(f, c, length, length).transpose(2, 1, 3, 0)
            band = band.reshape(length * c, length * f)
            x2 = x.transpose(0, 2, 1).reshape(n, length * c)
            self._cache = (x2, band) if train else None
            return (x2 @ band).reshape(n, length, f).transpose(0, 2, 1)
        padded = length + k - 1
        xp = np.empty((n, padded, c))
        xp[:, :lp] = 0.0
        xp[:, lp + length:] = 0.0
        xp[:, lp:lp + length] = x.transpose(0, 2, 1)
        # Row r of tap j reads flat row r + j; rows past a sample's length mix
        # two samples and are never read.
        flat = xp.reshape(n * padded, c)
        m = flat.shape[0] - (k - 1)
        taps = self.w.value.transpose(2, 1, 0).copy()  # (K, C, F), one GEMM operand per tap
        out = np.empty((n * padded, f))
        np.matmul(flat[:m], taps[0], out=out[:m])
        tap = np.empty((m, f))
        for j in range(1, k):
            out[:m] += np.matmul(flat[j:j + m], taps[j], out=tap)
        self._cache = (flat, None) if train else None
        return out.reshape(n, padded, f)[:, :length].transpose(0, 2, 1)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        flat, band = self._cache
        n, f, length = dout.shape
        k, lp, c = self.kernel, self.left_pad, self.in_channels
        if band is not None:
            reach, spread = _band_map(length, k)
            d2 = dout.transpose(0, 2, 1).reshape(n, length * f)
            dband = (flat.T @ d2).reshape(length, c, length, f).transpose(3, 1, 0, 2)
            self.w.grad[:, :, reach] += (dband.reshape(f * c, -1) @ spread).reshape(f, c, -1)
            if not input_grad:
                return None
            return (d2 @ band.T).reshape(n, length, c).transpose(0, 2, 1)
        padded = length + k - 1
        d = np.empty((n, padded, f))
        d[:, length:] = 0.0  # the junk rows must add nothing
        d[:, :length] = dout.transpose(0, 2, 1)
        m = flat.shape[0] - (k - 1)
        d = d.reshape(n * padded, f)[:m]
        for j in range(k):
            self.w.grad[:, :, j] += d.T @ flat[j:j + m]
        if not input_grad:
            return None
        taps = self.w.value.transpose(2, 0, 1).copy()  # (K, F, C)
        dflat = np.empty_like(flat)
        dflat[m:] = 0.0
        np.matmul(d, taps[0], out=dflat[:m])
        tap = np.empty((m, c))
        for j in range(1, k):
            dflat[j:j + m] += np.matmul(d, taps[j], out=tap)
        return dflat.reshape(n, padded, c)[:, lp:lp + length].transpose(0, 2, 1)


class BatchNorm1d:
    """Per-channel batch normalization over the (N, L) axes.

    Train mode normalizes with batch statistics (population variance plus
    BN_EPS) and updates running stats with momentum BN_MOMENTUM; eval mode
    uses the running stats and fails if none were ever recorded.
    """

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.gamma = store.add(f"{name}.gamma", np.ones(channels))
        self.beta = store.add(f"{name}.beta", np.zeros(channels))
        self.running_mean = store.add(f"{name}.running_mean", np.zeros(channels),
                                      trainable=False)
        self.running_var = store.add(f"{name}.running_var", np.ones(channels),
                                     trainable=False)
        self.initialized = store.add(f"{name}.initialized", np.zeros(1),
                                     trainable=False)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, length = x.shape
        if c != self.gamma.value.shape[0]:
            raise ShapeError(f"{self.gamma.name}: channel mismatch")
        x2 = x.transpose(0, 2, 1).reshape(n * length, c)
        if train:
            mean = x2.mean(axis=0)
            centered = x2 - mean
            var = (centered * centered).mean(axis=0)  # what x2.var(axis=0) computes
            m = BN_MOMENTUM
            self.running_mean.value[...] = (1 - m) * self.running_mean.value + m * mean
            self.running_var.value[...] = (1 - m) * self.running_var.value + m * var
            self.initialized.value[...] = 1.0
        else:
            if self.initialized.value[0] == 0.0:
                raise ConfigError(
                    f"{self.gamma.name}: eval before any train-mode batch statistics")
            mean = self.running_mean.value
            var = self.running_var.value
            centered = x2 - mean
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        xhat = np.multiply(centered, invstd, out=centered)
        self._cache = (xhat, invstd) if train else None
        out = xhat * self.gamma.value
        out += self.beta.value
        return out.reshape(n, length, c).transpose(0, 2, 1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, invstd = self._cache
        n, c, length = dout.shape
        d2 = dout.transpose(0, 2, 1).reshape(n * length, c)
        sum_d = d2.sum(axis=0)
        sum_d_xhat = (d2 * xhat).sum(axis=0)
        self.gamma.grad += sum_d_xhat
        self.beta.grad += sum_d
        scale = self.gamma.value * invstd
        # gamma * invstd / r * (r * d - sum(d) - xhat * sum(d * xhat))
        r = n * length
        dx = d2 * r
        dx -= sum_d
        dx -= xhat * sum_d_xhat
        dx *= scale / r
        return dx.reshape(n, length, c).transpose(0, 2, 1)


class Relu:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._mask = x > 0 if train else None
        return relu(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask


class Sigmoid:
    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = sigmoid(x)
        return self._out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._out * (1.0 - self._out)


class SoftmaxClasses:
    """Softmax over the class (last) axis."""

    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = softmax_over_classes(x)
        return self._out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        s = self._out
        return s * (dout - (dout * s).sum(axis=-1, keepdims=True))


class Dropout:
    """Inverted dropout; active only in train mode, masks from a seeded Rng."""

    def __init__(self, p: float, rng: Rng | None = None):
        if not (0.0 <= p < 1.0):
            raise ConfigError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or Rng(0)
        self._mask = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = self.rng.uniform(size=x.shape) >= self.p
        self._mask = keep / (1.0 - self.p)
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class GlobalAvgPool:
    """Mean over the time axis: (N, C, L) -> (N, C)."""

    def __init__(self):
        self._length = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._length = x.shape[2]
        return x.mean(axis=2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c = dout.shape
        return np.broadcast_to((dout / self._length)[:, :, None], (n, c, self._length))


class Dense:
    """Affine map (N, D) -> (N, M) with bias."""

    def __init__(self, store: ParamStore, name: str, in_dim: int, out_dim: int, rng: Rng):
        limit = glorot_limit(in_dim, out_dim)
        self.w = store.add(f"{name}.w", rng.uniform(-limit, limit, (in_dim, out_dim)))
        self.b = store.add(f"{name}.b", np.zeros(out_dim))
        self._x = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.w.value.shape[0]:
            raise ShapeError(
                f"{self.w.name}: expected (N, {self.w.value.shape[0]}), got {x.shape}")
        self._x = x if train else None
        return x @ self.w.value + self.b.value

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        self.w.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T if input_grad else None


class MaxPool1dSame:
    """Max pool, kernel 3, stride 1, same padding (used by inception modules).

    The gradient goes to the first maximum of each window, as argmax would
    send it.
    """

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, length = x.shape
        xp = np.full((n, length + 2, c), -np.inf)
        xp[:, 1:1 + length] = x.transpose(0, 2, 1)
        left, mid, right = xp[:, :length], xp[:, 1:1 + length], xp[:, 2:]
        out = np.maximum(left, mid)
        np.maximum(out, right, out=out)
        if train:
            first = left == out
            self._cache = (first, (mid == out) & ~first, length)
        else:
            self._cache = None
        return out.transpose(0, 2, 1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        first, second, length = self._cache
        d = dout.transpose(0, 2, 1)
        dxp = np.zeros((d.shape[0], length + 2, d.shape[2]))
        dxp[:, :length] += d * first
        dxp[:, 1:1 + length] += d * second
        dxp[:, 2:] += d * ~(first | second)
        return dxp[:, 1:1 + length].transpose(0, 2, 1)


class _LstmDirection:
    """One direction of an LSTM layer: parameters plus BPTT caches.

    Each step projects its own input into that step's gates, then adds the
    bias and the hidden-to-hidden product, for every row at once. Train and
    eval mode run the same per-step GEMMs, so they give the same bytes at
    every size. Train mode keeps every step's activated gates and cells for
    backward; eval mode keeps one step of gates and two of cells, whatever
    the window length. The weight gradients and input gradient are single
    GEMMs after the backward loop; only the hidden-to-hidden products stay
    per step.
    """

    def __init__(self, store: ParamStore, name: str, in_channels: int, hidden: int,
                 rng: Rng):
        limit = 1.0 / np.sqrt(hidden)
        self.w_ih = store.add(f"{name}.w_ih",
                              rng.uniform(-limit, limit, (4 * hidden, in_channels)))
        self.w_hh = store.add(f"{name}.w_hh",
                              rng.uniform(-limit, limit, (4 * hidden, hidden)))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget-gate bias opens the memory path
        self.b = store.add(f"{name}.b", bias)
        self.hidden = hidden
        # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5 on the i, f, o rows and tanh(z)
        # on g, so one tanh call covers all four gates. Halving the weight rows
        # instead of the pre-activation is exact (a power-of-two scale).
        self._gate_scale = np.full(4 * hidden, 0.5)
        self._gate_scale[2 * hidden:3 * hidden] = 1.0
        self._gate_shift = np.where(self._gate_scale == 0.5, 0.5, 0.0)
        self._cache = None

    def forward(self, xs: np.ndarray, train: bool) -> np.ndarray:
        """xs is (L, N, C) in consumption order; returns hidden states (L, N, H)."""
        length, n, channels = xs.shape
        h = self.hidden
        scale, shift = self._gate_scale, self._gate_shift
        w_ih_t = (self.w_ih.value * scale[:, None]).T
        bias = self.b.value * scale
        w_hh_t = (self.w_hh.value * scale[:, None]).T
        # train mode keeps every step's activated gates and cells for backward;
        # eval mode keeps one step of gates and two of cells
        steps = length if train else 1
        gates = np.empty((steps, n, 4 * h))
        cells = np.empty((length if train else 2, n, h))
        tanh_c = np.empty((steps, n, h))
        recur = np.empty((n, 4 * h))
        hs = np.empty((length, n, h))
        for t in range(length):
            z = np.matmul(xs[t], w_ih_t, out=gates[t % steps])
            z += bias
            if t:
                z += np.matmul(hs[t - 1], w_hh_t, out=recur)
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = cells[t % len(cells)]
            tc = tanh_c[t % steps]
            np.multiply(z[:, :h], z[:, 2 * h:3 * h], out=c)
            if t:
                c += np.multiply(z[:, h:2 * h], cells[(t - 1) % len(cells)], out=tc)
            np.tanh(c, out=tc)
            np.multiply(z[:, 3 * h:], tc, out=hs[t])
        self._cache = ((xs.reshape(length * n, channels), gates, cells, tanh_c, hs)
                       if train else None)
        return hs

    def backward(self, dh_seq: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """dh_seq is (L, N, H) in consumption order; returns dxs (L, N, C)."""
        x2, gates, cells, tanh_c, hs = self._cache
        length, n, h = hs.shape
        w_hh = self.w_hh.value
        # gate-major copy: each gate of each step is one contiguous (N, H) block
        gi, gf, gg, go = np.ascontiguousarray(
            gates.reshape(length, n, 4, h).transpose(2, 0, 1, 3))
        dzs = np.empty_like(gates)
        for t in range(length - 1, -1, -1):
            i_t, f_t, g_t, o_t = gi[t], gf[t], gg[t], go[t]
            tc = tanh_c[t]
            last = t == length - 1
            dh = dh_seq[t] if last else dh_seq[t] + dzs[t + 1] @ w_hh
            dc = dh * o_t * (1.0 - tc ** 2)
            if not last:
                dc += dc_next
            dz = dzs[t]
            dz[:, :h] = dc * g_t * i_t * (1.0 - i_t)
            if t:
                dz[:, h:2 * h] = dc * cells[t - 1] * f_t * (1.0 - f_t)
            else:
                dz[:, h:2 * h] = 0.0  # c_{-1} = 0
            dz[:, 2 * h:3 * h] = dc * i_t * (1.0 - g_t ** 2)
            dz[:, 3 * h:] = dh * tc * o_t * (1.0 - o_t)
            dc_next = dc * f_t
        dz2 = dzs.reshape(length * n, 4 * h)
        self.w_ih.grad += dz2.T @ x2
        if length > 1:
            self.w_hh.grad += dzs[1:].reshape(-1, 4 * h).T @ hs[:-1].reshape(-1, h)
        self.b.grad += dz2.sum(axis=0)
        if not input_grad:
            return None
        return (dz2 @ self.w_ih.value).reshape(length, n, -1)


class Lstm:
    """Uni- or bidirectional LSTM over (N, C, L) with exact full-window BPTT.

    Gate order is (i, f, g, o) with one combined bias per direction; initial
    hidden and cell states are zero. 'sequence' output is (N, H*dirs, L) with
    the backward direction aligned to original time; 'last' is (N, H*dirs),
    the final state of each direction.
    """

    def __init__(self, store: ParamStore, name: str, in_channels: int, hidden: int,
                 rng: Rng, bidirectional: bool = False, return_sequence: bool = False):
        if hidden < 1:
            raise ConfigError("hidden size must be >= 1")
        self.hidden = hidden
        self.in_channels = in_channels
        self.bidirectional = bidirectional
        self.return_sequence = return_sequence
        self.fw = _LstmDirection(store, f"{name}.fw", in_channels, hidden, rng)
        self.bw = (_LstmDirection(store, f"{name}.bw", in_channels, hidden, rng)
                   if bidirectional else None)
        self._length = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, length = x.shape
        if c != self.in_channels:
            raise ShapeError(f"lstm expected {self.in_channels} channels, got {c}")
        self._length = length
        xs = np.ascontiguousarray(np.moveaxis(x, 2, 0))  # (L, N, C)
        hs_f = self.fw.forward(xs, train)
        if self.bw is None:
            if self.return_sequence:
                return np.moveaxis(hs_f, 0, 2)
            return hs_f[-1].copy()
        hs_b = self.bw.forward(xs[::-1], train)
        if self.return_sequence:
            out = np.concatenate([hs_f, hs_b[::-1]], axis=2)  # (L, N, 2H)
            return np.moveaxis(out, 0, 2)
        return np.concatenate([hs_f[-1], hs_b[-1]], axis=1)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        length = self._length
        h = self.hidden
        n = dout.shape[0]
        if self.return_sequence:
            dh = np.moveaxis(dout, 2, 0)  # (L, N, H*dirs)
            dh_f = np.ascontiguousarray(dh[:, :, :h])
            dh_b = None if self.bw is None else np.ascontiguousarray(dh[::-1, :, h:])
        else:
            dh_f = np.zeros((length, n, h))
            dh_f[-1] = dout[:, :h]
            dh_b = None
            if self.bw is not None:
                dh_b = np.zeros((length, n, h))
                dh_b[-1] = dout[:, h:]
        dxs = self.fw.backward(dh_f, input_grad)
        if self.bw is not None:
            dxs_b = self.bw.backward(dh_b, input_grad)
            if input_grad:
                dxs = dxs + dxs_b[::-1]
        return np.moveaxis(dxs, 0, 2) if input_grad else None
