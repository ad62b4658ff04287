"""The LSTM direction against a per-step reference, and its eval mode.

The reference below is the straightforward per-step BPTT formulation with the
boolean-mask logistic and per-step weight gradient accumulation. Both are
built from the same seed, so their parameters are identical; outputs, all
parameter gradients and the input gradient must agree to 1e-12 relative error.
An eval-mode forward does the same arithmetic on each row as train mode, one
block of rows at a time, so at the shapes below its output is the same bytes;
it keeps one step of gates for a block of rows instead of every step's for
every row.
"""

import tracemalloc

import numpy as np
import pytest

from roomsense.models import AutoencoderConfig, build_autoencoder
from roomsense.nn import Lstm, ParamStore, layers, mse
from roomsense.rng import Rng

REL_TOL = 1e-12


def _mask_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _PerStepDirection(layers._LstmDirection):
    def forward(self, xs, train):
        length, n, _ = xs.shape
        h = self.hidden
        w_ih, w_hh, b = self.w_ih.value, self.w_hh.value, self.b.value
        gi, gf, gg, go = (np.empty((length, n, h)) for _ in range(4))
        cells, tanh_c, hs = (np.empty((length, n, h)) for _ in range(3))
        h_prev = np.zeros((n, h))
        c_prev = np.zeros((n, h))
        for t in range(length):
            z = xs[t] @ w_ih.T + h_prev @ w_hh.T + b
            gi[t] = _mask_sigmoid(z[:, :h])
            gf[t] = _mask_sigmoid(z[:, h:2 * h])
            gg[t] = np.tanh(z[:, 2 * h:3 * h])
            go[t] = _mask_sigmoid(z[:, 3 * h:])
            cells[t] = gf[t] * c_prev + gi[t] * gg[t]
            tanh_c[t] = np.tanh(cells[t])
            hs[t] = go[t] * tanh_c[t]
            h_prev, c_prev = hs[t], cells[t]
        self._cache = (xs, gi, gf, gg, go, cells, tanh_c, hs)
        return hs

    def backward(self, dh_seq, input_grad=True):
        xs, gi, gf, gg, go, cells, tanh_c, hs = self._cache
        length, n, _ = xs.shape
        h = self.hidden
        w_ih, w_hh = self.w_ih.value, self.w_hh.value
        dxs = np.empty_like(xs)
        dh_next = np.zeros((n, h))
        dc_next = np.zeros((n, h))
        dz = np.empty((n, 4 * h))
        for t in range(length - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            dc = dc_next + dh * go[t] * (1.0 - tanh_c[t] ** 2)
            c_prev = cells[t - 1] if t > 0 else np.zeros((n, h))
            h_prev = hs[t - 1] if t > 0 else np.zeros((n, h))
            dz[:, :h] = dc * gg[t] * gi[t] * (1.0 - gi[t])
            dz[:, h:2 * h] = dc * c_prev * gf[t] * (1.0 - gf[t])
            dz[:, 2 * h:3 * h] = dc * gi[t] * (1.0 - gg[t] ** 2)
            dz[:, 3 * h:] = dh * tanh_c[t] * go[t] * (1.0 - go[t])
            self.w_ih.grad += dz.T @ xs[t]
            self.w_hh.grad += dz.T @ h_prev
            self.b.grad += dz.sum(axis=0)
            dxs[t] = dz @ w_ih
            dh_next = dz @ w_hh
            dc_next = dc * gf[t]
        return dxs if input_grad else None


def _rel_err(got, want):
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max()) / scale


def _assert_close(got, want, what):
    assert got.shape == want.shape, what
    assert _rel_err(got, want) <= REL_TOL, f"{what}: rel err {_rel_err(got, want):.3g}"


def _run(build, x, seed=3):
    """Forward, backward with a seeded output gradient; returns out, dx, grads."""
    model = build()
    model.store.grad_arena[...] = 0.0
    out = model.forward(x, train=True)
    dout = Rng(seed).normal(size=out.shape)
    dx = model.backward(dout)
    return out, dx, {p.name: p.grad.copy() for p in model.store if p.trainable}


def _compare(build, x, monkeypatch):
    out, dx, grads = _run(build, x)
    with monkeypatch.context() as m:
        m.setattr(layers, "_LstmDirection", _PerStepDirection)
        ref_out, ref_dx, ref_grads = _run(build, x)
    _assert_close(out, ref_out, "output")
    _assert_close(dx, ref_dx, "input gradient")
    assert grads.keys() == ref_grads.keys()
    for name in ref_grads:
        _assert_close(grads[name], ref_grads[name], name)


class _Single:
    def __init__(self, channels, hidden, bidirectional, return_sequence):
        self.store = ParamStore()
        self.lstm = Lstm(self.store, "l", channels, hidden, Rng(11),
                         bidirectional=bidirectional, return_sequence=return_sequence)

    def forward(self, x, train):
        return self.lstm.forward(x, train)

    def backward(self, dout):
        return self.lstm.backward(dout)


@pytest.mark.parametrize("length", [1, 7])
@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("return_sequence", [False, True])
def test_single_layer_matches_per_step_reference(length, n, bidirectional,
                                                 return_sequence, monkeypatch):
    x = Rng(length * 100 + n).normal(size=(n, 9, length)) * 2.0
    _compare(lambda: _Single(9, 26, bidirectional, return_sequence), x, monkeypatch)


@pytest.mark.parametrize("n", [1, 64])
def test_stacked_autoencoder_matches_per_step_reference(n, monkeypatch):
    cfg = AutoencoderConfig(in_channels=17, encoder_hidden=(32, 16), latent=10, window=7)
    x = Rng(n).normal(size=(n, 17, 7))
    _compare(lambda: build_autoencoder(cfg, seed=5), x, monkeypatch)


def test_saturated_gates_stay_finite():
    store = ParamStore()
    lstm = Lstm(store, "l", 3, 4, Rng(0), return_sequence=True)
    x = np.full((2, 3, 5), 1e4)
    out = lstm.forward(x)
    assert np.isfinite(out).all()
    _, grad = mse(out, np.zeros_like(out))
    assert np.isfinite(lstm.backward(grad)).all()


def test_tanh_form_sigmoid_matches_mask_form():
    x = np.concatenate([Rng(0).normal(size=4000) * 8.0, [0.0, 800.0, -800.0, 36.7, -745.0]])
    assert np.abs(layers.sigmoid(x) - _mask_sigmoid(x)).max() <= 2.3e-16
    assert np.isnan(layers.sigmoid(np.array([np.nan]))).all()


# 1 and 7 rows at the classifier's default size fit one eval block; 300 and
# 512 rows at H=128 run in several
@pytest.mark.parametrize("n, channels, hidden",
                         [(5, 3, 4), (1, 17, 100), (7, 17, 100), (300, 17, 128), (512, 17, 128)])
@pytest.mark.parametrize("bidirectional, return_sequence", [(False, False), (True, True)])
def test_eval_forward_is_byte_identical_to_train(n, channels, hidden, bidirectional,
                                                 return_sequence):
    lstm = Lstm(ParamStore(), "l", channels, hidden, Rng(1), bidirectional=bidirectional,
                return_sequence=return_sequence)
    x = Rng(2).normal(size=(n, channels, 7))
    assert lstm.forward(x, train=False).tobytes() == lstm.forward(x, train=True).tobytes()


def test_eval_blocks_at_an_odd_hidden_size_stay_within_an_ulp_of_train():
    # with 4H not a multiple of 8, OpenBLAS computes the last four gate columns
    # of a row by a kernel chosen by the row's place in the GEMM, so eval blocks
    # can move a hidden state by its last bit; one block is byte-identical
    lstm = Lstm(ParamStore(), "l", 17, 51, Rng(1), bidirectional=True, return_sequence=True)
    for n in (1, 7, 300, 512):
        x = Rng(n).normal(size=(n, 17, 7))
        gap = np.abs(lstm.forward(x, train=False) - lstm.forward(x, train=True)).max()
        assert gap <= 2.0 ** -52, (n, gap)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_eval_forward_peak_is_below_half_the_train_peak():
    lstm = Lstm(ParamStore(), "l", 17, 128, Rng(1))
    x = Rng(2).normal(size=(512, 17, 7))
    train = _peak_bytes(lambda: lstm.forward(x, train=True))
    lstm.fw._cache = None  # the train cache is not the eval forward's memory
    assert _peak_bytes(lambda: lstm.forward(x, train=False)) < train / 2
