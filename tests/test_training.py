from dataclasses import replace

import numpy as np
import pytest

from roomsense.errors import ConfigError, DegenerateDataError, TrainingDivergedError
from roomsense.models import FcnConfig, build_fcn
from roomsense.nn import ParamStore
from roomsense.pipeline import WindowSet, build_windows, fit_scaler, split_fraction, transform
from roomsense.synth import ScenarioConfig, generate_frame
from roomsense.frames import binarize_person
from roomsense.training import History, TrainConfig, train_autoencoder, train_classifier


def labelled_windows(n_samples=3000, seed=11, channels=("co2", "oxygen", "sound", "o3")):
    frame = binarize_person(generate_frame(ScenarioConfig(n_samples=n_samples, seed=seed)))
    ws = build_windows(frame, list(channels), length=7, undersample_k=20)
    scaler = fit_scaler("standard", ws)
    return transform(scaler, ws)


class ScriptedModel:
    """Protocol stub: one scalar weight; train targets pull it up, valid targets
    punish that, so validation loss strictly worsens after epoch 1."""

    kind = "stub"

    class config:
        head_mode = "multi_label"

    def __init__(self):
        self.store = ParamStore()
        self.w = self.store.add("w", np.array([0.0]))

    def forward(self, x, train=False):
        return np.full((x.shape[0], 1), self.w.value[0])

    def backward(self, grad, input_grad=True):
        self.w.grad += grad.sum()

    def predict_proba(self, x):
        return 1.0 / (1.0 + np.exp(-self.forward(x)))


def stub_windows(n, y_value):
    return WindowSet(
        X=np.zeros((n, 1, 1)),
        Y=np.full((n, 1), float(y_value)),
        channel_names=("a",),
        class_names=("person",),
        start_timestamps=np.arange(n, dtype=np.int64),
        label_position="first",
    )


class TestEarlyStopping:
    def test_patience_one_stops_at_epoch_three_restores_epoch_one(self):
        # train targets are 1 (weight rises), valid targets are 0 (loss worsens)
        model = ScriptedModel()
        cfg = TrainConfig(epochs=10, batch_size=4, lr_max=0.5, schedule="constant",
                          patience=1, min_delta=1e-9, seed=1, shuffle=False)
        model, history = train_classifier(model, stub_windows(8, 1), stub_windows(4, 0), cfg)
        assert len(history) == 3
        assert history.stopped_early
        assert history.best_epoch == 1
        assert history.valid_loss[0] < history.valid_loss[1] < history.valid_loss[2]
        # returned weight is the epoch-1 snapshot
        reference = ScriptedModel()
        ref_cfg = TrainConfig(epochs=1, batch_size=4, lr_max=0.5, schedule="constant",
                              patience=1, seed=1, shuffle=False)
        reference, _ = train_classifier(reference, stub_windows(8, 1), stub_windows(4, 0),
                                        ref_cfg)
        assert model.w.value[0] == reference.w.value[0]

    def test_returned_weights_never_worse_than_best(self):
        ws = labelled_windows()
        train, valid = split_fraction(ws, 0.8, seed=2)
        model = build_fcn(FcnConfig(in_channels=4, filters=(6,), kernels=(3,)), seed=3)
        cfg = TrainConfig(epochs=12, batch_size=64, lr_max=3e-3, seed=3, patience=3)
        model, history = train_classifier(model, train, valid, cfg)
        from roomsense.training import _validation_pass, loss_for
        final_loss, _ = _validation_pass(model, valid, loss_for(model), 64, False)
        assert final_loss == pytest.approx(min(history.valid_loss), abs=1e-12)

    def test_best_valid_running_min_non_increasing(self):
        ws = labelled_windows()
        train, valid = split_fraction(ws, 0.8, seed=4)
        model = build_fcn(FcnConfig(in_channels=4, filters=(6,), kernels=(3,)), seed=5)
        cfg = TrainConfig(epochs=8, batch_size=64, lr_max=3e-3, seed=5)
        _, history = train_classifier(model, train, valid, cfg)
        running = np.minimum.accumulate(history.valid_loss)
        assert np.all(np.diff(running) <= 0)


class TestDeterminism:
    def run_once(self, seed=7):
        ws = labelled_windows()
        train, valid = split_fraction(ws, 0.8, seed=9)
        model = build_fcn(FcnConfig(in_channels=4, filters=(6,), kernels=(3,)), seed=seed)
        cfg = TrainConfig(epochs=4, batch_size=64, lr_max=3e-3, seed=seed,
                          early_stopping=False)
        model, history = train_classifier(model, train, valid, cfg)
        return model, history

    def test_same_seed_bit_identical(self):
        m1, h1 = self.run_once()
        m2, h2 = self.run_once()
        for p, q in zip(m1.store, m2.store):
            assert p.value.tobytes() == q.value.tobytes()
        assert h1.train_loss == h2.train_loss
        assert h1.valid_loss == h2.valid_loss
        assert h1.valid_accuracy == h2.valid_accuracy
        assert h1.learning_rate == h2.learning_rate

    def test_seeded_fcn_regression_accuracy(self):
        ws = labelled_windows(seed=7)
        train, valid = split_fraction(ws, 0.8, seed=7)
        model = build_fcn(FcnConfig(in_channels=4, filters=(8, 8), kernels=(5, 3)), seed=7)
        cfg = TrainConfig(epochs=10, batch_size=64, lr_max=3e-3, seed=7)
        _, history = train_classifier(model, train, valid, cfg)
        assert history.valid_accuracy[-1] >= 0.9


class TestValidationPass:
    def test_one_forward_per_batch(self):
        from roomsense.training import _validation_pass, loss_for

        class CountingModel(ScriptedModel):
            forwards = 0

            def forward(self, x, train=False):
                self.forwards += 1
                return super().forward(x, train)

            def predict_proba(self, x):
                raise AssertionError("validation must reuse the loss logits")

        model = CountingModel()
        valid = stub_windows(600, 1)
        loss, acc = _validation_pass(model, valid, loss_for(model), 64, False)
        assert model.forwards == 3  # batches of max(64, 256) rows
        assert acc == 1.0  # w = 0 gives probability 0.5, which counts as positive
        assert loss == pytest.approx(np.log(2.0))


class TestHistory:
    def test_one_entry_per_completed_epoch(self):
        ws = labelled_windows()
        train, valid = split_fraction(ws, 0.8, seed=3)
        model = build_fcn(FcnConfig(in_channels=4, filters=(4,), kernels=(3,)), seed=2)
        cfg = TrainConfig(epochs=5, batch_size=64, lr_max=1e-3, seed=2,
                          early_stopping=False)
        _, history = train_classifier(model, train, valid, cfg)
        assert len(history) == 5
        assert len(history.valid_loss) == len(history.learning_rate) == 5
        assert len(history.wall_seconds) == 5

    def test_json_excludes_timing_by_default(self):
        history = History(train_loss=[1.0], valid_loss=[0.9], valid_accuracy=[0.5],
                          learning_rate=[1e-3], wall_seconds=[0.1], best_epoch=1)
        assert "wall_seconds" not in history.to_json()
        assert "wall_seconds" in history.timing_csv().splitlines()[0]

    def test_cosine_schedule_recorded(self):
        ws = labelled_windows()
        train, valid = split_fraction(ws, 0.8, seed=3)
        model = build_fcn(FcnConfig(in_channels=4, filters=(4,), kernels=(3,)), seed=2)
        cfg = TrainConfig(epochs=3, batch_size=64, lr_max=1e-2, lr_min=1e-4, seed=2,
                          early_stopping=False)
        _, history = train_classifier(model, train, valid, cfg)
        assert history.learning_rate[0] > history.learning_rate[-1]
        assert history.learning_rate[-1] >= 1e-4


class TestDivergence:
    def test_nonfinite_loss_reports_epoch(self):
        model = ScriptedModel()
        model.w.value[0] = np.inf
        cfg = TrainConfig(epochs=2, batch_size=4, lr_max=0.1, seed=1)
        with pytest.raises(TrainingDivergedError) as err, np.errstate(invalid="ignore"):
            train_classifier(model, stub_windows(8, 1), stub_windows(4, 0), cfg)
        assert err.value.epoch == 1


class TestEmptySets:
    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_zero_windows_are_a_data_error_naming_the_set(self, empty):
        model = ScriptedModel()
        train = stub_windows(0 if empty == "training" else 8, 1)
        valid = stub_windows(0 if empty == "validation" else 4, 0)
        with pytest.raises(DegenerateDataError, match=f"the {empty} set holds zero windows"):
            train_classifier(model, train, valid, TrainConfig(epochs=2, batch_size=4))
        assert model.w.value[0] == 0.0  # raised before the first step


class TestTrainAutoencoder:
    def corpus(self, n=600, seed=5):
        frame = generate_frame(ScenarioConfig(n_samples=n, seed=seed))
        ws = build_windows(frame, ["co2", "oxygen", "humidity_abs"], length=5)
        return transform(fit_scaler("standard", ws), ws)

    def test_history_length_and_loss_decreases(self):
        from roomsense.models import AutoencoderConfig, build_autoencoder
        ws = self.corpus()
        ae = build_autoencoder(AutoencoderConfig(in_channels=3, encoder_hidden=(6, 5),
                                                 latent=3, window=5), seed=4)
        cfg = TrainConfig(epochs=6, batch_size=32, lr_max=5e-3, seed=4,
                          early_stopping=False)
        ae, history = train_autoencoder(ae, ws, cfg)
        assert len(history) == 6
        assert all(a is None for a in history.valid_accuracy)
        assert history.valid_loss[-1] < 0.8 * history.valid_loss[0]

    def test_holdout_split_is_seeded(self):
        from roomsense.models import AutoencoderConfig, build_autoencoder
        ws = self.corpus()
        results = []
        for _ in range(2):
            ae = build_autoencoder(AutoencoderConfig(in_channels=3,
                                                     encoder_hidden=(6, 5),
                                                     latent=3, window=5), seed=4)
            cfg = TrainConfig(epochs=2, batch_size=32, lr_max=3e-3, seed=4,
                              early_stopping=False)
            _, history = train_autoencoder(ae, ws, cfg)
            results.append(tuple(history.valid_loss))
        assert results[0] == results[1]

    def test_too_few_windows_rejected(self):
        from roomsense.models import AutoencoderConfig, build_autoencoder
        ws = self.corpus().take(np.array([0]))
        ae = build_autoencoder(AutoencoderConfig(in_channels=3, encoder_hidden=(6, 5),
                                                 latent=3, window=5), seed=4)
        with pytest.raises(ConfigError):
            train_autoencoder(ae, ws, TrainConfig(epochs=1, seed=1))


class TestInputGradientSkip:
    """The training loop asks for no input gradient; the weights must not notice."""

    @pytest.mark.parametrize("kind", ["fcn", "lstm", "inception", "inception_same_width",
                                      "autoencoder", "encoder_classifier"])
    def test_weights_bit_identical_with_and_without_the_skip(self, kind, monkeypatch):
        from roomsense.models import (AutoencoderConfig, HeadConfig, InceptionConfig,
                                      LstmConfig, build_autoencoder, build_encoder_classifier,
                                      build_inception, build_lstm_classifier)
        from roomsense.models.autoencoder import _DenseHead
        ws = labelled_windows(n_samples=1500)
        train, valid = split_fraction(ws, 0.8, seed=9)
        cfg = TrainConfig(epochs=2, batch_size=32, lr_max=3e-3, seed=5, early_stopping=False)
        ae_cfg = AutoencoderConfig(in_channels=4, encoder_hidden=(6, 5), latent=3, window=7)
        builds = {
            "fcn": lambda: build_fcn(FcnConfig(in_channels=4, filters=(6, 5), kernels=(5, 3)), 1),
            "lstm": lambda: build_lstm_classifier(
                LstmConfig(in_channels=4, hidden=5, bidirectional=True), 1),
            "inception": lambda: build_inception(
                InceptionConfig(in_channels=4, filters=2, bottleneck=3, depth=6), 1),
            "inception_same_width": lambda: build_inception(
                InceptionConfig(in_channels=8, filters=2, bottleneck=3, depth=3), 1),
            "autoencoder": lambda: build_autoencoder(ae_cfg, 1),
            "encoder_classifier": lambda: build_encoder_classifier(
                build_autoencoder(ae_cfg, 1), HeadConfig(hidden=4), 2),
        }
        if kind == "inception_same_width":  # the first shortcut is the identity
            train, valid = (replace(w, X=np.concatenate([w.X, -w.X], axis=1),
                                    channel_names=w.channel_names + tuple(
                                        f"-{c}" for c in w.channel_names))
                            for w in (train, valid))

        def run():
            model = builds[kind]()
            if kind == "autoencoder":
                _, history = train_autoencoder(model, train, cfg)
            else:
                _, history = train_classifier(model, train, valid, cfg)
            return model.store.value_arena.tobytes(), history.train_loss, history.valid_loss

        net_cls = _DenseHead if kind == "encoder_classifier" else type(builds[kind]())
        backward = net_cls.backward
        returned = []
        with monkeypatch.context() as m:
            m.setattr(net_cls, "backward", lambda self, d, input_grad=True: returned.append(
                backward(self, d, input_grad)))
            skipped = run()
        assert returned and all(r is None for r in returned)
        with monkeypatch.context() as m:  # the input gradient computed even when not asked for
            m.setattr(net_cls, "backward", lambda self, d, input_grad=True: backward(self, d))
            full = run()
        assert skipped == full


class TestTrainConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_bad_schedule(self):
        with pytest.raises(ConfigError):
            TrainConfig(schedule="linear")

    def test_bad_patience(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=0, early_stopping=True)
