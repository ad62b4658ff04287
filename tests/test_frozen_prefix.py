"""Head training on latents against per-batch encoder training.

``train_classifier`` encodes an ``EncoderClassifier``'s labelled windows once
and trains the head on the (N, latent) matrix. The reference below is the
straightforward loop it replaced: every training and validation batch of every
epoch goes through the full model, frozen encoder included. The encoder is
deterministic, so the two differ only in GEMM summation order (rows encoded in
different batch shapes): head weights and history must agree to 1e-12
relative error.
"""

import math

import numpy as np
import pytest

from roomsense.models import (
    AutoencoderConfig,
    HeadConfig,
    build_autoencoder,
    build_encoder_classifier,
)
from roomsense.nn import AdamState, Lstm, adam_step, cosine_lr, head_probabilities
from roomsense.pipeline import WindowSet
from roomsense.rng import Rng, derive_seed
from roomsense.training import History, TrainConfig, loss_for, train_classifier

REL_TOL = 1e-12


def _reference_validation(model, ws, loss_fn, batch_size):
    total_loss, correct = 0.0, 0
    step = max(batch_size, 256)
    for start in range(0, len(ws), step):
        xb, yb = ws.X[start:start + step], ws.Y[start:start + step]
        out = model.forward(xb, train=False)
        loss, _ = loss_fn(out, yb)
        total_loss += loss * len(xb)
        probs = head_probabilities(out, model.config.head_mode)
        correct += int(((probs >= 0.5) == (yb >= 0.5)).sum())
    return total_loss / len(ws), correct / (len(ws) * ws.Y.shape[1])


def _reference_train(model, train, valid, cfg):
    """Per-batch encoder training: the full model forward on every batch."""
    loss_fn = loss_for(model)
    shuffle_rng = Rng(derive_seed(cfg.seed, 1))
    state = AdamState(model.store)
    n = len(train)
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)
    history = History()
    best_loss, best_epoch, best_snapshot, step = math.inf, 0, None, 0
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, grad = loss_fn(model.forward(train.X[idx], train=True), train.Y[idx])
            model.backward(grad)
            lr = cosine_lr(step, total_steps, cfg.lr_max, cfg.lr_min)
            adam_step(model.store, state, lr)
            step += 1
            epoch_loss += loss * len(idx)
        valid_loss, valid_acc = _reference_validation(model, valid, loss_fn, cfg.batch_size)
        history.train_loss.append(epoch_loss / n)
        history.valid_loss.append(valid_loss)
        history.valid_accuracy.append(valid_acc)
        history.learning_rate.append(lr)
        if valid_loss < best_loss - cfg.min_delta:
            best_loss, best_epoch = valid_loss, epoch
            best_snapshot = model.store.snapshot()
        if epoch - max(best_epoch, 1) > cfg.patience:
            history.stopped_early = True
            break
    model.store.restore(best_snapshot)
    history.best_epoch = max(best_epoch, 1)
    return history


def _windows(n, seed, head_mode):
    rng = Rng(seed)
    if head_mode == "single_label":
        y = np.eye(2)[rng.integers(2, size=(n,))]
    else:
        y = (rng.uniform(size=(n, 2)) < 0.5).astype(float)
    return WindowSet(X=rng.normal(size=(n, 3, 5)), Y=y, channel_names=("a", "b", "c"),
                     class_names=("person", "window_open"),
                     start_timestamps=np.arange(n, dtype=np.int64), label_position="first")


def _classifier(head_mode):
    ae = build_autoencoder(AutoencoderConfig(in_channels=3, encoder_hidden=(6, 5),
                                             latent=4, window=5), seed=1)
    return build_encoder_classifier(ae, HeadConfig(hidden=8, classes=2, head_mode=head_mode),
                                    seed=2)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)


@pytest.mark.parametrize("head_mode", ["multi_label", "single_label"])
def test_latent_training_matches_per_batch_encoder(head_mode):
    # 600 training windows span two 512-row encoding chunks; the high learning
    # rate on random labels overfits, so early stopping stops and restores
    train, valid = _windows(600, 3, head_mode), _windows(90, 4, head_mode)
    cfg = TrainConfig(epochs=12, batch_size=32, lr_max=0.05, lr_min=1e-4, patience=2,
                      seed=7)
    fast, ref = _classifier(head_mode), _classifier(head_mode)
    _, history = train_classifier(fast, train, valid, cfg)
    ref_history = _reference_train(ref, train, valid, cfg)
    assert history.stopped_early and ref_history.stopped_early
    assert history.best_epoch == ref_history.best_epoch < len(history) == len(ref_history)
    for field in ("train_loss", "valid_loss", "valid_accuracy", "learning_rate"):
        assert _rel_err(getattr(history, field), getattr(ref_history, field)) <= REL_TOL, field
    for p in fast.store:
        if p.trainable:
            assert _rel_err(p.value, ref.store[p.name].value) <= REL_TOL, p.name
        else:
            assert p.value.tobytes() == ref.store[p.name].value.tobytes(), p.name


def test_encoder_sees_each_window_once_per_call(monkeypatch):
    rows = {}
    forward = Lstm.forward

    def counting(self, x, train=True):
        rows[id(self)] = rows.get(id(self), 0) + x.shape[0]
        return forward(self, x, train)

    monkeypatch.setattr(Lstm, "forward", counting)
    model = _classifier("multi_label")
    train, valid = _windows(600, 3, "multi_label"), _windows(90, 4, "multi_label")
    cfg = TrainConfig(epochs=4, batch_size=32, early_stopping=False, seed=7)
    for calls in (1, 2):
        train_classifier(model, train, valid, cfg)
        assert sorted(rows) == sorted(id(layer) for layer in model.encoder)
        assert set(rows.values()) == {calls * (len(train) + len(valid))}


def test_feature_space_is_the_encoder_output():
    ae = build_autoencoder(AutoencoderConfig(in_channels=3, encoder_hidden=(6, 5),
                                             latent=4, window=5), seed=1)
    clf = build_encoder_classifier(ae, HeadConfig(hidden=8, classes=2), seed=2)
    x = Rng(9).normal(size=(7, 3, 5))
    latent = clf.feature_space(x)
    assert latent.tobytes() == ae.encode(x).tobytes()
    assert clf.forward(x).tobytes() == clf.suffix.forward(latent).tobytes()
