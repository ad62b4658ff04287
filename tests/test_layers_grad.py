"""Layer behaviour plus finite-difference gradient checks for every layer."""

import numpy as np
import pytest

from conftest import numeric_gradient, rel_error
from roomsense.errors import ConfigError, ShapeError
from roomsense.nn import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Dropout,
    GlobalAvgPool,
    Lstm,
    MaxPool1dSame,
    ParamStore,
    Relu,
    Sigmoid,
    SoftmaxClasses,
    mse,
    relu,
    sigmoid,
    softmax_over_classes,
)
from roomsense.rng import Rng


def check_param_gradients(loss_fn, backprop_fn, store, tol, h=1e-5):
    """backprop_fn() must run forward+backward, populating grads from zero."""
    store.grad_arena[...] = 0.0
    backprop_fn()
    for p in store:
        if not p.trainable:
            continue
        num = numeric_gradient(loss_fn, p.value, h=h)
        assert rel_error(p.grad, num) < tol, f"{p.name}: rel error too large"


def check_input_gradient(loss_fn, dx, x, tol, h=1e-5):
    num = numeric_gradient(loss_fn, x, h=h)
    assert rel_error(dx, num) < tol


class TestConv1d:
    def test_hand_cross_correlation(self):
        store = ParamStore()
        conv = Conv1d(store, "c", 1, 1, 3, Rng(0))
        conv.w.value[...] = np.array([[[1.0, 0.0, -1.0]]])
        out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert out[0, 0].tolist() == [-2.0, -2.0, 2.0]

    def test_identity_kernel(self):
        store = ParamStore()
        conv = Conv1d(store, "c", 1, 1, 3, Rng(0))
        conv.w.value[...] = np.array([[[0.0, 1.0, 0.0]]])
        x = Rng(1).normal(size=(2, 1, 9))
        assert np.allclose(conv.forward(x), x)

    def test_length_preserved_for_any_kernel(self):
        for k in (1, 2, 3, 4, 5, 8):
            store = ParamStore()
            conv = Conv1d(store, "c", 2, 3, k, Rng(0))
            out = conv.forward(Rng(1).normal(size=(2, 2, 11)))
            assert out.shape == (2, 3, 11)

    def test_channel_mismatch(self):
        conv = Conv1d(ParamStore(), "c", 3, 2, 3, Rng(0))
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 5)))

    @pytest.mark.parametrize("shape,k", [((2, 3, 11), 5), ((1, 2, 7), 3), ((3, 1, 9), 4)])
    def test_gradients(self, shape, k):
        store = ParamStore()
        conv = Conv1d(store, "c", shape[1], 4, k, Rng(2))
        x = Rng(3).normal(size=shape)
        target = Rng(4).normal(size=(shape[0], 4, shape[2]))

        def loss():
            return mse(conv.forward(x), target)[0]

        def backprop():
            out = conv.forward(x)
            _, grad = mse(out, target)
            self.dx = conv.backward(grad)

        check_param_gradients(loss, backprop, store, 1e-6)
        check_input_gradient(loss, self.dx, x, 1e-6)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        store = ParamStore()
        bn = BatchNorm1d(store, "b", 3)
        x = Rng(5).normal(2.0, 3.0, size=(4, 3, 7))
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=(0, 2))).max() < 1e-9
        assert np.abs(out.var(axis=(0, 2)) - 1.0).max() < 1e-4  # eps effect

    def test_constant_channel_zero_pre_affine(self):
        store = ParamStore()
        bn = BatchNorm1d(store, "b", 1)
        out = bn.forward(np.full((2, 1, 5), 7.0), train=True)
        assert np.abs(out).max() < 1e-9

    def test_eval_before_train_fails(self):
        bn = BatchNorm1d(ParamStore(), "b", 2)
        with pytest.raises(ConfigError):
            bn.forward(np.zeros((1, 2, 3)), train=False)

    def test_running_stats_momentum(self):
        store = ParamStore()
        bn = BatchNorm1d(store, "b", 1)
        x = np.full((1, 1, 4), 10.0)
        x[0, 0, :2] = 0.0  # batch mean 5, var 25
        bn.forward(x, train=True)
        assert bn.running_mean.value[0] == pytest.approx(0.9 * 0.0 + 0.1 * 5.0)
        assert bn.running_var.value[0] == pytest.approx(0.9 * 1.0 + 0.1 * 25.0)

    def test_eval_uses_running_stats_rowwise(self):
        store = ParamStore()
        bn = BatchNorm1d(store, "b", 2)
        bn.forward(Rng(6).normal(size=(8, 2, 5)), train=True)
        x = Rng(7).normal(size=(4, 2, 5))
        full = bn.forward(x, train=False)
        rows = np.concatenate([bn.forward(x[i:i + 1], train=False) for i in range(4)])
        assert np.abs(full - rows).max() < 1e-12

    @pytest.mark.parametrize("shape", [(4, 3, 7), (2, 1, 9), (3, 5, 2)])
    def test_gradients_train_mode(self, shape):
        store = ParamStore()
        bn = BatchNorm1d(store, "b", shape[1])
        bn.gamma.value[...] = Rng(8).uniform(0.5, 1.5, size=(shape[1],))
        bn.beta.value[...] = Rng(9).normal(size=(shape[1],))
        x = Rng(10).normal(size=shape)
        target = Rng(11).normal(size=shape)

        def loss():
            return mse(bn.forward(x, train=True), target)[0]

        def backprop():
            out = bn.forward(x, train=True)
            _, grad = mse(out, target)
            self.dx = bn.backward(grad)

        check_param_gradients(loss, backprop, store, 1e-6)
        check_input_gradient(loss, self.dx, x, 1e-6)


class TestActivations:
    def test_relu_values(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_relu_layer_propagates_nan(self):
        out = Relu().forward(np.array([[-1.0, np.nan, 2.0]]))
        assert out[0, 0] == 0.0 and np.isnan(out[0, 1]) and out[0, 2] == 2.0

    def test_sigmoid_values(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        assert sigmoid(np.array([800.0]))[0] == 1.0  # no overflow
        assert sigmoid(np.array([-800.0]))[0] == 0.0

    def test_softmax_uniform_and_rowsum(self):
        s = softmax_over_classes(np.zeros((2, 4)))
        assert np.allclose(s, 0.25)
        z = Rng(12).normal(size=(5, 3)) * 10
        assert np.abs(softmax_over_classes(z).sum(axis=1) - 1.0).max() < 1e-12

    def test_relu_gradient(self):
        act = Relu()
        x = Rng(13).normal(size=(3, 4))
        target = Rng(14).normal(size=(3, 4))

        def loss():
            return mse(act.forward(x), target)[0]

        out = act.forward(x)
        _, grad = mse(out, target)
        dx = act.backward(grad)
        check_input_gradient(loss, dx, x, 1e-6)

    def test_sigmoid_gradient(self):
        act = Sigmoid()
        x = Rng(15).normal(size=(3, 4))
        target = Rng(16).normal(size=(3, 4))

        def loss():
            return mse(act.forward(x), target)[0]

        _, grad = mse(act.forward(x), target)
        dx = act.backward(grad)
        check_input_gradient(loss, dx, x, 1e-8)

    def test_softmax_gradient(self):
        act = SoftmaxClasses()
        x = Rng(17).normal(size=(4, 3))
        target = Rng(18).uniform(size=(4, 3))

        def loss():
            return mse(act.forward(x), target)[0]

        _, grad = mse(act.forward(x), target)
        dx = act.backward(grad)
        check_input_gradient(loss, dx, x, 1e-8)


class TestDropout:
    def test_eval_mode_identity(self):
        drop = Dropout(0.4, Rng(1))
        x = Rng(2).normal(size=(5, 6))
        assert np.array_equal(drop.forward(x, train=False), x)

    def test_train_mode_reproducible_per_seed(self):
        x = Rng(3).normal(size=(50, 20))
        a = Dropout(0.3, Rng(9)).forward(x, train=True)
        b = Dropout(0.3, Rng(9)).forward(x, train=True)
        assert np.array_equal(a, b)

    def test_inverted_scaling(self):
        x = np.ones((200, 50))
        out = Dropout(0.5, Rng(4)).forward(x, train=True)
        kept = out[out != 0.0]
        assert np.allclose(kept, 2.0)
        assert abs(out.mean() - 1.0) < 0.05

    def test_p_zero_passthrough(self):
        x = Rng(5).normal(size=(3, 3))
        assert np.array_equal(Dropout(0.0, Rng(1)).forward(x, train=True), x)

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)

    def test_gradient_with_fixed_mask(self):
        x = Rng(6).normal(size=(4, 5))
        target = Rng(7).normal(size=(4, 5))

        def loss():
            drop = Dropout(0.4, Rng(42))
            return mse(drop.forward(x, train=True), target)[0]

        drop = Dropout(0.4, Rng(42))
        out = drop.forward(x, train=True)
        _, grad = mse(out, target)
        dx = drop.backward(grad)
        check_input_gradient(loss, dx, x, 1e-8)


class TestGlobalAvgPool:
    def test_constant_in_time(self):
        gap = GlobalAvgPool()
        x = np.tile(np.array([[1.0, 2.0]])[:, :, None], (1, 1, 6))
        assert gap.forward(x).tolist() == [[1.0, 2.0]]

    def test_simple_mean(self):
        gap = GlobalAvgPool()
        assert gap.forward(np.array([[[1.0, 2.0, 3.0]]]))[0, 0] == 2.0

    def test_gradient(self):
        gap = GlobalAvgPool()
        x = Rng(8).normal(size=(2, 3, 5))
        target = Rng(9).normal(size=(2, 3))

        def loss():
            return mse(gap.forward(x), target)[0]

        _, grad = mse(gap.forward(x), target)
        dx = gap.backward(grad)
        check_input_gradient(loss, dx, x, 1e-9)


class TestDense:
    def test_identity(self):
        store = ParamStore()
        dense = Dense(store, "d", 3, 3, Rng(0))
        dense.w.value[...] = np.eye(3)
        dense.b.value[...] = 0.0
        x = Rng(1).normal(size=(4, 3))
        assert np.allclose(dense.forward(x), x)

    def test_hand_affine(self):
        store = ParamStore()
        dense = Dense(store, "d", 2, 1, Rng(0))
        dense.w.value[...] = np.array([[1.0], [-1.0]])
        dense.b.value[...] = np.array([0.5])
        assert dense.forward(np.array([[3.0, 1.0]]))[0, 0] == 2.5

    def test_shape_error(self):
        dense = Dense(ParamStore(), "d", 3, 2, Rng(0))
        with pytest.raises(ShapeError):
            dense.forward(np.zeros((2, 4)))

    @pytest.mark.parametrize("n,d,m", [(4, 3, 2), (1, 5, 4), (6, 2, 7)])
    def test_gradients(self, n, d, m):
        store = ParamStore()
        dense = Dense(store, "d", d, m, Rng(2))
        x = Rng(3).normal(size=(n, d))
        target = Rng(4).normal(size=(n, m))

        def loss():
            return mse(dense.forward(x), target)[0]

        def backprop():
            _, grad = mse(dense.forward(x), target)
            self.dx = dense.backward(grad)

        check_param_gradients(loss, backprop, store, 1e-8)
        check_input_gradient(loss, self.dx, x, 1e-8)


class TestMaxPool:
    def test_same_length_and_values(self):
        pool = MaxPool1dSame()
        out = pool.forward(np.array([[[1.0, 5.0, 2.0, 4.0]]]))
        assert out[0, 0].tolist() == [5.0, 5.0, 5.0, 4.0]

    def test_gradient(self):
        pool = MaxPool1dSame()
        x = Rng(5).normal(size=(2, 3, 8))
        target = Rng(6).normal(size=(2, 3, 8))

        def loss():
            return mse(pool.forward(x), target)[0]

        _, grad = mse(pool.forward(x), target)
        dx = pool.backward(grad)
        check_input_gradient(loss, dx, x, 1e-6)


class TestLstm:
    def test_zero_parameters_give_zero_hidden(self):
        store = ParamStore()
        lstm = Lstm(store, "l", 3, 4, Rng(0), return_sequence=True)
        for p in store:
            p.value[...] = 0.0
        out = lstm.forward(Rng(1).normal(size=(2, 3, 6)))
        assert np.abs(out).max() == 0.0

    def test_bidirectional_output_width(self):
        store = ParamStore()
        lstm = Lstm(store, "l", 3, 5, Rng(0), bidirectional=True)
        assert lstm.forward(Rng(1).normal(size=(2, 3, 4))).shape == (2, 10)
        store2 = ParamStore()
        seq = Lstm(store2, "l", 3, 5, Rng(0), bidirectional=True, return_sequence=True)
        assert seq.forward(Rng(1).normal(size=(2, 3, 4))).shape == (2, 10, 4)

    def test_forget_bias_initialized_to_one(self):
        store = ParamStore()
        lstm = Lstm(store, "l", 2, 3, Rng(0))
        b = store["l.fw.b"].value
        assert np.all(b[3:6] == 1.0)
        assert np.all(b[:3] == 0.0) and np.all(b[6:] == 0.0)

    def test_hidden_size_validation(self):
        with pytest.raises(ConfigError):
            Lstm(ParamStore(), "l", 2, 0, Rng(0))

    @pytest.mark.parametrize("bidirectional,return_sequence", [
        (False, False), (False, True), (True, False), (True, True)])
    def test_gradients(self, bidirectional, return_sequence):
        store = ParamStore()
        lstm = Lstm(store, "l", 3, 4, Rng(2), bidirectional=bidirectional,
                    return_sequence=return_sequence)
        x = Rng(3).normal(size=(2, 3, 5))
        width = 8 if bidirectional else 4
        t_shape = (2, width, 5) if return_sequence else (2, width)
        target = Rng(4).normal(size=t_shape)

        def loss():
            return mse(lstm.forward(x), target)[0]

        def backprop():
            _, grad = mse(lstm.forward(x), target)
            self.dx = lstm.backward(grad)

        check_param_gradients(loss, backprop, store, 1e-5)
        check_input_gradient(loss, self.dx, x, 1e-5)

    def test_long_window_bptt_gradient(self):
        store = ParamStore()
        lstm = Lstm(store, "l", 2, 3, Rng(5))
        x = Rng(6).normal(size=(1, 2, 15))
        target = Rng(7).normal(size=(1, 3))

        def loss():
            return mse(lstm.forward(x), target)[0]

        def backprop():
            _, grad = mse(lstm.forward(x), target)
            lstm.backward(grad)

        check_param_gradients(loss, backprop, store, 1e-5)
