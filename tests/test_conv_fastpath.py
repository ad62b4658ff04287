"""Channels-last Conv1d, BatchNorm1d and MaxPool1dSame against references.

The references below are the straightforward (N, C, L) formulations: one
batched (F, C) x (C, L) matmul per tap for the convolution, and batch-norm
reductions over axes (0, 2). They are patched onto the layer classes, so a
model built from the same seed runs them with identical parameters; outputs,
every parameter gradient, the input gradient and the running statistics must
agree to 1e-12 relative error.

Two more oracles are the layers' previous kernels: the channels-last per-tap
convolution (one GEMM per tap over a zero-padded buffer), which the banded
kernel must match to 1e-12 on both sides of the kernel rule, and the
argmax max pool, which the shifted-maximum pool must match bit for bit.
"""

import numpy as np
import pytest

from roomsense.models import FcnConfig, InceptionConfig, build_fcn, build_inception
from roomsense.nn import BatchNorm1d, Conv1d, MaxPool1dSame, ParamStore
from roomsense.nn.layers import BN_EPS, BN_MOMENTUM
from roomsense.rng import Rng

REL_TOL = 1e-12


def _ref_conv_forward(self, x, train=True):
    n, c, length = x.shape
    k = self.kernel
    xp = np.zeros((n, c, length + k - 1))
    xp[:, :, self.left_pad:self.left_pad + length] = x
    self._ref_xp = xp
    w = self.w.value
    out = np.zeros((n, self.filters, length))
    for j in range(k):
        out += np.matmul(w[:, :, j], xp[:, :, j:j + length])
    return out


def _ref_conv_backward(self, dout, input_grad=True):
    xp = self._ref_xp
    n, _, length = dout.shape
    k = self.kernel
    w = self.w.value
    dxp = np.zeros_like(xp)
    for j in range(k):
        self.w.grad[:, :, j] += np.tensordot(dout, xp[:, :, j:j + length],
                                             axes=([0, 2], [0, 2]))
        dxp[:, :, j:j + length] += np.matmul(w[:, :, j].T, dout)
    if not input_grad:
        return None
    return dxp[:, :, self.left_pad:self.left_pad + (xp.shape[2] - k + 1)]


def _ref_bn_forward(self, x, train):
    if train:
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        m = BN_MOMENTUM
        self.running_mean.value[...] = (1 - m) * self.running_mean.value + m * mean
        self.running_var.value[...] = (1 - m) * self.running_var.value + m * var
        self.initialized.value[...] = 1.0
    else:
        mean = self.running_mean.value
        var = self.running_var.value
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None]) * invstd[None, :, None]
    self._cache = (xhat, invstd, train)
    return self.gamma.value[None, :, None] * xhat + self.beta.value[None, :, None]


def _ref_bn_backward(self, dout):
    xhat, invstd, train = self._cache
    self.gamma.grad += (dout * xhat).sum(axis=(0, 2))
    self.beta.grad += dout.sum(axis=(0, 2))
    dxhat = dout * self.gamma.value[None, :, None]
    if not train:
        return dxhat * invstd[None, :, None]
    n, _, length = dout.shape
    r = n * length
    sum_dxhat = dxhat.sum(axis=(0, 2), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
    return (invstd[None, :, None] / r) * (r * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


def _rel_err(got, want):
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max()) / scale


def _assert_close(got, want, what):
    assert got.shape == want.shape, what
    assert _rel_err(got, want) <= REL_TOL, f"{what}: rel err {_rel_err(got, want):.3g}"


def _layout(a, channels_last):
    """``a`` as given, or the same values as a transposed view of (N, L, C) memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1) if channels_last else a


def _states(store):
    return {p.name: p.value.copy() for p in store if not p.trainable}


def _compare(run, monkeypatch):
    """``run()`` returns a dict of arrays; it must agree with the reference run."""
    got = run()
    with monkeypatch.context() as m:
        m.setattr(Conv1d, "forward", _ref_conv_forward)
        m.setattr(Conv1d, "backward", _ref_conv_backward)
        m.setattr(BatchNorm1d, "forward", _ref_bn_forward)
        m.setattr(BatchNorm1d, "backward", _ref_bn_backward)
        want = run()
    assert got.keys() == want.keys()
    for name in want:
        _assert_close(got[name], want[name], name)


@pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("length", [1, 7])
@pytest.mark.parametrize("channels_last", [False, True])
def test_conv_matches_reference(kernel, n, length, channels_last, monkeypatch):
    x = _layout(Rng(kernel * 1000 + n * 10 + length).normal(size=(n, 5, length)),
                channels_last)
    dout = _layout(Rng(7).normal(size=(n, 6, length)), channels_last)

    def run():
        store = ParamStore()
        conv = Conv1d(store, "c", 5, 6, kernel, Rng(11))
        out = conv.forward(x)
        dx = conv.backward(dout)
        return {"output": out, "input gradient": dx, "weight gradient": conv.w.grad.copy()}

    _compare(run, monkeypatch)


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("length", [1, 7])
@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("eval_mode", [False, True])
def test_batchnorm_matches_reference(n, length, channels_last, eval_mode, monkeypatch):
    rng = Rng(n * 10 + length)
    x_first = _layout(rng.normal(size=(n, 6, length)) * 3.0 + 1.0, channels_last)
    x = _layout(rng.normal(size=(n, 6, length)) * 2.0 - 0.5, channels_last)
    dout = _layout(rng.normal(size=(n, 6, length)), channels_last)

    def run():
        store = ParamStore()
        bn = BatchNorm1d(store, "bn", 6)
        bn.gamma.value[...] = Rng(3).uniform(0.5, 1.5, 6)
        bn.beta.value[...] = Rng(4).normal(size=6)
        bn.forward(x_first, train=True)  # records running statistics
        out = bn.forward(x, train=not eval_mode)
        if eval_mode:  # an eval-mode forward keeps no backward cache
            return {"output": out, **_states(store)}
        dx = bn.backward(dout)
        return {"output": out, "input gradient": dx, "gamma gradient": bn.gamma.grad.copy(),
                "beta gradient": bn.beta.grad.copy(), **_states(store)}

    _compare(run, monkeypatch)


def _model_run(build, x, dout_seed=3):
    def run():
        model = build()
        model.store.grad_arena[...] = 0.0
        out = model.forward(x, train=True)
        dx = model.backward(Rng(dout_seed).normal(size=out.shape))
        grads = {f"{p.name} gradient": p.grad.copy() for p in model.store if p.trainable}
        return {"output": out, "input gradient": dx, "eval output": model.forward(x),
                **grads, **_states(model.store)}
    return run


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("length", [1, 7])
def test_fcn_matches_reference(n, length, monkeypatch):
    cfg = FcnConfig(in_channels=9, filters=(16, 12, 8), kernels=(8, 5, 3))
    x = Rng(n + length).normal(size=(n, 9, length))
    _compare(_model_run(lambda: build_fcn(cfg, seed=4), x), monkeypatch)


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("channels_last", [False, True])
def test_inception_matches_reference(n, channels_last, monkeypatch):
    cfg = InceptionConfig(in_channels=5, filters=4, bottleneck=3, branch_kernels=(2, 3, 8),
                          depth=6)
    x = _layout(Rng(n).normal(size=(n, 5, 9)), channels_last)
    _compare(_model_run(lambda: build_inception(cfg, seed=2), x), monkeypatch)


def test_layers_return_views_not_copies():
    store = ParamStore()
    conv = Conv1d(store, "c", 4, 6, 3, Rng(0))
    bn = BatchNorm1d(store, "bn", 6)
    y = conv.forward(Rng(1).normal(size=(8, 4, 5)))
    assert y.shape == (8, 6, 5) and y.base is not None
    z = bn.forward(y, train=True)
    assert z.shape == (8, 6, 5) and z.transpose(0, 2, 1).flags.c_contiguous


def _taps_conv_forward(self, x, train=True):
    """The per-tap kernel: one GEMM per tap over one zero-padded channels-last buffer."""
    n, c, length = x.shape
    k, lp = self.kernel, self.left_pad
    padded = length + k - 1
    xp = np.empty((n, padded, c))
    xp[:, :lp] = 0.0
    xp[:, lp + length:] = 0.0
    xp[:, lp:lp + length] = x.transpose(0, 2, 1)
    flat = xp.reshape(n * padded, c)
    m = flat.shape[0] - (k - 1)
    taps = self.w.value.transpose(2, 1, 0).copy()
    out = np.empty((n * padded, self.filters))
    np.matmul(flat[:m], taps[0], out=out[:m])
    tap = np.empty((m, self.filters))
    for j in range(1, k):
        out[:m] += np.matmul(flat[j:j + m], taps[j], out=tap)
    self._taps_flat = flat
    return out.reshape(n, padded, self.filters)[:, :length].transpose(0, 2, 1)


def _taps_conv_backward(self, dout, input_grad=True):
    flat = self._taps_flat
    n, _, length = dout.shape
    k, lp = self.kernel, self.left_pad
    padded = length + k - 1
    c = flat.shape[1]
    d = np.empty((n, padded, self.filters))
    d[:, length:] = 0.0
    d[:, :length] = dout.transpose(0, 2, 1)
    m = flat.shape[0] - (k - 1)
    d = d.reshape(n * padded, self.filters)[:m]
    taps = self.w.value.transpose(2, 0, 1).copy()
    dflat = np.empty_like(flat)
    dflat[m:] = 0.0
    np.matmul(d, taps[0], out=dflat[:m])
    tap = np.empty((m, c))
    for j in range(k):
        self.w.grad[:, :, j] += d.T @ flat[j:j + m]
        if j:
            dflat[j:j + m] += np.matmul(d, taps[j], out=tap)
    return dflat.reshape(n, padded, c)[:, lp:lp + length].transpose(0, 2, 1)


@pytest.mark.parametrize("kernel", [1, 3, 5, 10, 20, 40])
@pytest.mark.parametrize("length", [1, 7, 60])
@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("channels_last", [False, True])
def test_conv_matches_per_tap_kernel(kernel, length, n, channels_last, monkeypatch):
    x = _layout(Rng(kernel * 1000 + n * 10 + length).normal(size=(n, 5, length)),
                channels_last)
    dout = _layout(Rng(8).normal(size=(n, 6, length)), channels_last)

    def run():
        conv = Conv1d(ParamStore(), "c", 5, 6, kernel, Rng(12))
        out = conv.forward(x)
        dx = conv.backward(dout)
        return {"output": out, "input gradient": dx, "weight gradient": conv.w.grad.copy()}

    got = run()
    with monkeypatch.context() as m:
        m.setattr(Conv1d, "forward", _taps_conv_forward)
        m.setattr(Conv1d, "backward", _taps_conv_backward)
        want = run()
    for name in want:
        _assert_close(got[name], want[name], name)


@pytest.mark.parametrize("kernel, length, banded", [
    (5, 7, True), (3, 7, False), (1, 7, False), (1, 1, True), (40, 7, True),
    (40, 60, True), (20, 60, False), (5, 60, False)])
def test_kernel_rule_picks_the_band_exactly_when_l_squared_fits(kernel, length, banded):
    """Banded exactly when L*L <= K*(L+K-1); the band's backward skips dx on request."""
    assert (length * length <= kernel * (length + kernel - 1)) == banded
    conv = Conv1d(ParamStore(), "c", 3, 4, kernel, Rng(0))
    conv.forward(Rng(1).normal(size=(2, 3, length)))
    assert (conv._cache[1] is not None) == banded
    assert conv.backward(Rng(2).normal(size=(2, 4, length)), input_grad=False) is None


def _argmax_pool_forward(self, x, train=True):
    """The previous max pool: argmax over a stack of the three shifted windows."""
    n, c, length = x.shape
    xp = np.full((n, length + 2, c), -np.inf)
    xp[:, 1:1 + length] = x.transpose(0, 2, 1)
    stacked = np.stack([xp[:, j:j + length] for j in range(3)])
    arg = stacked.argmax(axis=0)
    self._argmax = (arg, length)
    return np.take_along_axis(stacked, arg[None], axis=0)[0].transpose(0, 2, 1)


def _argmax_pool_backward(self, dout):
    arg, length = self._argmax
    d = dout.transpose(0, 2, 1)
    dxp = np.zeros((d.shape[0], length + 2, d.shape[2]))
    for j in range(3):
        dxp[:, j:j + length] += d * (arg == j)
    return dxp[:, 1:1 + length].transpose(0, 2, 1)


@pytest.mark.parametrize("length", [1, 2, 7, 30])
@pytest.mark.parametrize("channels_last", [False, True])
def test_max_pool_matches_argmax_pool_bit_for_bit(length, channels_last, monkeypatch):
    """Ties (values drawn from four levels, and -0.0 against 0.0) and -inf cells
    must send the gradient where argmax sends it: to the first maximum. The
    outputs agree as numbers; a tie of 0.0 and -0.0 may keep either sign."""
    rng = Rng(length)
    x = rng.integers(4, size=(16, 5, length)).astype(np.float64)
    x[rng.uniform(size=x.shape) < 0.2] = -np.inf
    x[rng.uniform(size=x.shape) < 0.1] = -0.0
    x[0, 0, :] = -np.inf  # a whole channel of -inf
    x = _layout(x, channels_last)
    dout = _layout(rng.normal(size=(16, 5, length)), channels_last)

    def run():
        pool = MaxPool1dSame()
        out = pool.forward(x)
        return out, pool.backward(dout)

    got = run()
    with monkeypatch.context() as m:
        m.setattr(MaxPool1dSame, "forward", _argmax_pool_forward)
        m.setattr(MaxPool1dSame, "backward", _argmax_pool_backward)
        want = run()
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
