import numpy as np
import pytest

from conftest import numeric_gradient, rel_error
from roomsense.errors import ConfigError, IntegrityError, ShapeError
from roomsense.models import (
    AutoencoderConfig,
    FcnConfig,
    HeadConfig,
    InceptionConfig,
    LstmConfig,
    build_autoencoder,
    build_encoder_classifier,
    build_fcn,
    build_inception,
    build_lstm_classifier,
    build_model,
    model_from_checkpoint,
    param_count,
    save_model,
)
from roomsense.nn import AdamState, adam_step, bce_with_logits, mse
from roomsense.nn.checkpoint import architecture_fingerprint
from roomsense.rng import Rng


class TestParamCounts:
    def test_minimized_fcn_2418(self):
        model = build_fcn(FcnConfig(in_channels=9, filters=(16, 32), kernels=(5, 3)))
        assert param_count(model) == 2418

    def test_optimized_fcn_2306(self):
        model = build_fcn(FcnConfig(in_channels=9, filters=(32, 8), kernels=(5, 3)))
        assert param_count(model) == 2306

    def test_uni_lstm_43802(self):
        model = build_lstm_classifier(LstmConfig(in_channels=8, hidden=100))
        assert param_count(model) == 43802

    def test_bi_lstm_87602(self):
        model = build_lstm_classifier(
            LstmConfig(in_channels=8, hidden=100, bidirectional=True))
        assert param_count(model) == 87602

    def test_encoder_classifier_head_1302(self):
        ae = build_autoencoder(AutoencoderConfig(in_channels=17,
                                                 encoder_hidden=(16, 12), latent=10))
        clf = build_encoder_classifier(ae, HeadConfig(hidden=100, classes=2))
        assert param_count(clf) == 10 * 100 + 100 + 100 * 2 + 2 == 1302


class TestFcn:
    def test_default_config_shapes(self):
        model = build_fcn(FcnConfig(in_channels=9), seed=1)
        x = Rng(1).normal(size=(4, 9, 15))
        assert model.forward(x, train=True).shape == (4, 2)

    def test_length_invariance(self):
        model = build_fcn(FcnConfig(in_channels=3, filters=(4, 6), kernels=(5, 3)), seed=2)
        for length in (7, 10, 15):
            x = Rng(3).normal(size=(2, 3, length))
            out = model.forward(x, train=True)
            assert out.shape == (2, 2)
            # feature maps kept the time length before pooling
            assert model.gap._length == length

    def test_channel_mismatch_raises(self):
        model = build_fcn(FcnConfig(in_channels=4, filters=(4,), kernels=(3,)))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 7)), train=True)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FcnConfig(in_channels=9, filters=(16,), kernels=(5, 3))
        with pytest.raises(ConfigError):
            FcnConfig(in_channels=9, head_mode="triple")


class TestLstmClassifier:
    def test_zeroed_weights_logits_equal_bias(self):
        model = build_lstm_classifier(LstmConfig(in_channels=3, hidden=4), seed=1)
        for name in ("lstm.fw.w_ih", "lstm.fw.w_hh", "lstm.fw.b"):
            model.store[name].value[...] = 0.0
        model.store["head.b"].value[...] = np.array([0.7, -0.3])
        out = model.forward(Rng(5).normal(size=(6, 3, 7)), train=False)
        assert np.allclose(out, [0.7, -0.3])

    def test_single_recurrent_layer_only(self):
        model = build_lstm_classifier(LstmConfig(in_channels=3, hidden=4))
        lstm_weights = [n for n in model.store.names() if n.startswith("lstm.")]
        assert lstm_weights == ["lstm.fw.w_ih", "lstm.fw.w_hh", "lstm.fw.b"]


class TestInception:
    def toy_config(self, **kw):
        defaults = dict(in_channels=3, filters=2, bottleneck=2,
                        branch_kernels=(3, 5, 7), depth=3, classes=2)
        defaults.update(kw)
        return InceptionConfig(**defaults)

    def test_module_output_channels_4nf(self):
        model = build_inception(self.toy_config(), seed=1)
        x = Rng(1).normal(size=(2, 3, 12))
        out = model.modules[0].forward(x, train=True)
        assert out.shape == (2, 8, 12)  # 4 branches x nf=2

    def test_forward_shape_and_depth_validation(self):
        model = build_inception(self.toy_config(depth=6), seed=2)
        assert model.forward(Rng(2).normal(size=(2, 3, 12)), train=True).shape == (2, 2)
        with pytest.raises(ConfigError):
            InceptionConfig(in_channels=3, depth=4)

    def test_residual_passthrough_with_zeroed_module_weights(self):
        # equal in/out channels so the shortcut is the identity
        cfg = self.toy_config(in_channels=8, filters=2, depth=3)
        model = build_inception(cfg, seed=6)
        assert model.shortcuts[2] is None
        x = Rng(5).normal(size=(2, 8, 10))
        model.forward(x, train=True)  # batch-norm stats for eval mode
        for p in model.store:
            if p.name.startswith("module") and p.trainable:
                p.value[...] = 0.0
        # zeroed modules emit zeros (gamma 0 kills batch norm output), so the
        # junction output is exactly the shortcut input
        head_w = model.store["head.w"].value
        head_b = model.store["head.b"].value
        logits = model.forward(x, train=False)
        expected = x.mean(axis=2) @ head_w + head_b
        assert np.allclose(logits, expected, atol=1e-12)
        # and the logits ignore everything except the shortcut signal
        x2 = x + Rng(6).normal(size=x.shape)
        logits2 = model.forward(x2, train=False)
        assert not np.allclose(logits, logits2)
        assert np.allclose(logits2, x2.mean(axis=2) @ head_w + head_b, atol=1e-12)

    def test_shortcut_conv_used_when_channels_differ(self):
        model = build_inception(self.toy_config(), seed=7)
        assert model.shortcuts[2] is not None

    def test_length_invariance_same_parameters(self):
        model = build_inception(self.toy_config(), seed=8)
        for length in (7, 12, 20):
            out = model.forward(Rng(9).normal(size=(2, 3, length)), train=True)
            assert out.shape == (2, 2)


class TestAutoencoder:
    def toy_config(self, latent=3, channels=4):
        return AutoencoderConfig(in_channels=channels, encoder_hidden=(6, 5),
                                 latent=latent, window=5)

    @pytest.mark.parametrize("latent", [2, 10, 16])
    def test_encode_shape(self, latent):
        ae = build_autoencoder(AutoencoderConfig(latent=latent), seed=1)
        x = Rng(1).normal(size=(3, 17, 7))
        assert ae.encode(x).shape == (3, latent)

    def test_reconstruct_preserves_shape(self):
        ae = build_autoencoder(self.toy_config(), seed=2)
        x = Rng(2).normal(size=(4, 4, 5))
        assert ae.forward(x).shape == (4, 4, 5)

    def test_decoder_mirrors_encoder(self):
        cfg = AutoencoderConfig(encoder_hidden=(128, 64), latent=10)
        assert cfg.encoder_sizes == (128, 64, 10)
        assert cfg.decoder_sizes == (10, 64, 128)

    def test_training_halves_smoothed_mse(self):
        # 64 windows of real synthetic sensor structure, standard-scaled
        from roomsense.pipeline import build_windows, fit_scaler, transform
        from roomsense.synth import ScenarioConfig, generate_frame

        frame = generate_frame(ScenarioConfig(n_samples=200, seed=9))
        ws = build_windows(frame, ["co2", "oxygen", "humidity_abs", "tvoc"], length=5)
        x = transform(fit_scaler("standard", ws), ws).X[:64]
        ae = build_autoencoder(self.toy_config(), seed=3)
        losses = []
        state = AdamState(ae.store)
        for step in range(200):
            out = ae.forward(x, train=True)
            loss, grad = mse(out, x)
            losses.append(loss)
            ae.backward(grad)
            adam_step(ae.store, state, lr=3e-3)
        smooth5 = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert smooth5[-1] <= 0.5 * smooth5[0]

    def test_identity_sanity_big_latent(self):
        # latent >= channels * length can memorize 8 constant windows
        cfg = AutoencoderConfig(in_channels=3, encoder_hidden=(24, 20), latent=9,
                                window=3)
        ae = build_autoencoder(cfg, seed=5)
        base = Rng(6).uniform(-0.5, 0.5, size=(8, 3, 1))
        x = np.repeat(base, 3, axis=2)
        state = AdamState(ae.store)
        loss = np.inf
        for _ in range(300):
            out = ae.forward(x, train=True)
            loss, grad = mse(out, x)
            ae.backward(grad)
            adam_step(ae.store, state, lr=1e-2)
        assert loss < 1e-3


class TestEncoderClassifier:
    def build(self, latent=4):
        ae_cfg = AutoencoderConfig(in_channels=3, encoder_hidden=(6, 5),
                                   latent=latent, window=5)
        ae = build_autoencoder(ae_cfg, seed=1)
        return ae, build_encoder_classifier(ae, HeadConfig(hidden=8, classes=2), seed=2)

    def test_encoder_buffers_copied_and_frozen(self):
        ae, clf = self.build()
        for p in clf.store:
            if p.name.startswith("enc"):
                assert not p.trainable
                assert np.array_equal(p.value, ae.store[p.name].value)
            else:
                assert p.trainable

    def test_encoder_bit_identical_after_training(self):
        _, clf = self.build()
        before = {p.name: p.value.copy() for p in clf.store if not p.trainable}
        rng = Rng(3)
        x = rng.normal(size=(40, 3, 5))
        y = (rng.uniform(size=(40, 2)) < 0.5).astype(float)
        state = AdamState(clf.store)
        for step in range(100):
            out = clf.forward(x, train=True)
            _, grad = bce_with_logits(out, y)
            clf.backward(grad)
            adam_step(clf.store, state, lr=1e-3)
        for name, value in before.items():
            assert clf.store[name].value.tobytes() == value.tobytes()

    def test_multilabel_probabilities_independent(self):
        _, clf = self.build()
        probs = clf.predict_proba(Rng(4).normal(size=(6, 3, 5)))
        assert probs.shape == (6, 2)
        assert not np.allclose(probs.sum(axis=1), 1.0)

    def test_latent_mismatch_rejected(self):
        ae, _ = self.build(latent=4)
        clf = build_encoder_classifier(ae, HeadConfig(hidden=8, classes=2))
        with pytest.raises(ShapeError):
            # feeding wrong channel count breaks against the encoder contract
            clf.forward(np.zeros((2, 5, 5)))

    def test_head_mode_softmax_probabilities_sum_to_one(self):
        ae_cfg = AutoencoderConfig(in_channels=3, encoder_hidden=(6, 5), latent=4,
                                   window=5)
        ae = build_autoencoder(ae_cfg, seed=1)
        clf = build_encoder_classifier(
            ae, HeadConfig(hidden=8, classes=2, head_mode="single_label"))
        probs = clf.predict_proba(Rng(5).normal(size=(6, 3, 5)))
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestMultiLabelIndependence:
    def test_permuting_one_class_targets_keeps_other_gradient(self):
        model = build_fcn(FcnConfig(in_channels=2, filters=(3,), kernels=(3,)), seed=1)
        x = Rng(1).normal(size=(8, 2, 6))
        y = (Rng(2).uniform(size=(8, 2)) < 0.5).astype(float)
        logits = model.forward(x, train=True)
        _, grad_a = bce_with_logits(logits, y)
        y_perm = y.copy()
        y_perm[:, 1] = y[::-1, 1]  # permute the window class only
        _, grad_b = bce_with_logits(logits, y_perm)
        assert np.array_equal(grad_a[:, 0], grad_b[:, 0])


class TestBatchConsistency:
    def _assert_rowwise(self, model, x):
        full = model.predict_proba(x)
        rows = np.concatenate([model.predict_proba(x[i:i + 1])
                               for i in range(x.shape[0])])
        assert np.abs(full - rows).max() < 1e-9

    def test_all_architectures(self):
        n = 5
        fcn = build_fcn(FcnConfig(in_channels=3, filters=(4, 4), kernels=(5, 3)), seed=1)
        fcn.forward(Rng(1).normal(size=(8, 3, 7)), train=True)
        self._assert_rowwise(fcn, Rng(2).normal(size=(n, 3, 7)))

        lstm = build_lstm_classifier(LstmConfig(in_channels=3, hidden=4, dropout=0.3),
                                     seed=2)
        self._assert_rowwise(lstm, Rng(3).normal(size=(n, 3, 7)))

        inc = build_inception(InceptionConfig(in_channels=3, filters=2, bottleneck=2,
                                              branch_kernels=(3, 5, 7), depth=3),
                                seed=3)
        inc.forward(Rng(4).normal(size=(8, 3, 10)), train=True)
        self._assert_rowwise(inc, Rng(5).normal(size=(n, 3, 10)))

        ae = build_autoencoder(AutoencoderConfig(in_channels=3, encoder_hidden=(5, 4),
                                                 latent=3, window=6), seed=4)
        x = Rng(6).normal(size=(n, 3, 6))
        full = ae.forward(x)
        rows = np.concatenate([ae.forward(x[i:i + 1]) for i in range(n)])
        assert np.abs(full - rows).max() < 1e-9

        clf = build_encoder_classifier(ae, HeadConfig(hidden=6, classes=2), seed=5)
        self._assert_rowwise(clf, x)


class TestEndToEndGradients:
    """Loss gradient w.r.t. every trainable buffer matches finite differences."""

    def _check(self, model, x, loss_of, tol=1e-4, h=1e-5):
        model.store.grad_arena[...] = 0.0
        out = model.forward(x, train=True)
        _, grad = loss_of(out)
        model.backward(grad)
        analytic = {p.name: p.grad.copy() for p in model.store if p.trainable}

        for p in model.store:
            if not p.trainable:
                continue
            def loss_fn():
                out = model.forward(x, train=True)
                return loss_of(out)[0]
            num = numeric_gradient(loss_fn, p.value, h=h)
            err = rel_error(analytic[p.name], num)
            assert err < tol, f"{p.name}: rel error {err}"

    def test_fcn(self):
        model = build_fcn(FcnConfig(in_channels=2, filters=(3, 2), kernels=(3, 3)), seed=1)
        x = Rng(1).normal(size=(3, 2, 6))
        y = (Rng(2).uniform(size=(3, 2)) < 0.5).astype(float)
        self._check(model, x, lambda out: bce_with_logits(out, y))

    def test_lstm(self):
        model = build_lstm_classifier(LstmConfig(in_channels=2, hidden=3), seed=2)
        x = Rng(3).normal(size=(2, 2, 4))
        y = (Rng(4).uniform(size=(2, 2)) < 0.5).astype(float)
        self._check(model, x, lambda out: bce_with_logits(out, y))

    def test_inception(self):
        model = build_inception(InceptionConfig(in_channels=2, filters=2, bottleneck=2,
                                                branch_kernels=(3, 5), depth=3),
                                seed=3)
        x = Rng(5).normal(size=(2, 2, 8))
        y = (Rng(6).uniform(size=(2, 2)) < 0.5).astype(float)
        self._check(model, x, lambda out: bce_with_logits(out, y))

    def test_autoencoder(self):
        model = build_autoencoder(AutoencoderConfig(in_channels=2, encoder_hidden=(3, 3),
                                                    latent=2, window=4), seed=4)
        x = Rng(7).normal(size=(2, 2, 4))
        self._check(model, x, lambda out: mse(out, x))

    def test_encoder_classifier(self):
        ae = build_autoencoder(AutoencoderConfig(in_channels=2, encoder_hidden=(3, 3),
                                                 latent=2, window=4), seed=5)
        model = build_encoder_classifier(ae, HeadConfig(hidden=4, classes=2), seed=6)
        x = Rng(8).normal(size=(3, 2, 4))
        y = (Rng(9).uniform(size=(3, 2)) < 0.5).astype(float)
        self._check(model, x, lambda out: bce_with_logits(out, y))


class TestCheckpointing:
    def test_model_round_trip_bit_exact(self, tmp_path):
        model = build_fcn(FcnConfig(in_channels=3, filters=(4,), kernels=(3,)), seed=9)
        model.forward(Rng(1).normal(size=(4, 3, 7)), train=True)  # bn stats
        save_model(model, tmp_path / "m", step=3)
        loaded = model_from_checkpoint(tmp_path / "m")
        for p in model.store:
            assert loaded.store[p.name].value.tobytes() == p.value.tobytes()
        x = Rng(2).normal(size=(2, 3, 7))
        assert np.array_equal(loaded.predict_proba(x), model.predict_proba(x))

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        model = build_fcn(FcnConfig(in_channels=3, filters=(4,), kernels=(3,)), seed=9)
        save_model(model, tmp_path / "m")
        wrong = architecture_fingerprint({"kind": "lstm"})
        with pytest.raises(IntegrityError):
            model_from_checkpoint(tmp_path / "m", expect_fingerprint=wrong)

    def test_encoder_classifier_round_trip_keeps_freeze(self, tmp_path):
        ae = build_autoencoder(AutoencoderConfig(in_channels=2, encoder_hidden=(3, 3),
                                                 latent=2, window=4), seed=1)
        clf = build_encoder_classifier(ae, HeadConfig(hidden=4, classes=2), seed=2)
        save_model(clf, tmp_path / "clf")
        loaded = model_from_checkpoint(tmp_path / "clf")
        for p in loaded.store:
            assert p.trainable == (not p.name.startswith("enc"))

    def test_build_model_from_arch(self):
        arch = {"kind": "lstm", "in_channels": 5, "hidden": 7, "bidirectional": False,
                "dropout": 0.1, "classes": 2, "head_mode": "multi_label"}
        model = build_model(arch, seed=3)
        assert param_count(model) == 4 * 7 * (5 + 7) + 4 * 7 + (7 * 2 + 2)
