"""Mini-batch training loops with cosine scheduling and early stopping.

Both loops are deterministic per seed: batch order, dropout masks, and the
autoencoder's held-out split all derive from TrainConfig.seed through the
documented splitmix stream, so repeated runs produce bit-identical weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateDataError, TrainingDivergedError
from .frames import csv_text
from .nn import (
    AdamState,
    adam_step,
    bce_with_logits,
    cosine_lr,
    head_probabilities,
    mse,
    softmax_cross_entropy,
)
from .pipeline import WindowSet
from .rng import Rng, derive_seed
from .schema import dump


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    lr_max: float = 1e-3
    lr_min: float = 0.0
    schedule: str = "cosine"  # cosine | constant
    early_stopping: bool = True
    patience: int = 10
    min_delta: float = 1e-4
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be cosine|constant, got {self.schedule!r}")
        if self.early_stopping and self.patience < 1:
            raise ConfigError("patience must be >= 1 when early stopping is enabled")


@dataclass
class History:
    """Per-epoch training record; wall seconds go only to ``timing_csv``."""

    train_loss: list[float] = field(default_factory=list)
    valid_loss: list[float] = field(default_factory=list)
    valid_accuracy: list[float | None] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    stopped_early: bool = False

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_json(self) -> str:
        return dump({k: v for k, v in asdict(self).items() if k != "wall_seconds"})

    def to_csv(self) -> str:
        columns = ("train_loss", "valid_loss", "valid_accuracy", "learning_rate")
        # as float64, a None accuracy becomes NaN, which is written as an empty cell
        return csv_text(["epoch", *columns], [range(1, len(self) + 1), *(
            np.array(getattr(self, c), dtype=np.float64) for c in columns)])

    def timing_csv(self) -> str:
        return csv_text(["epoch", "wall_seconds"],
                        [range(1, len(self.wall_seconds) + 1), self.wall_seconds])


def _head_mode(model) -> str:
    return getattr(model.config, "head_mode", "multi_label")


def loss_for(model):
    """Training loss implied by the model's head mode (MSE for autoencoders)."""
    kind = getattr(model, "kind", "")
    if kind == "autoencoder":
        return mse
    return softmax_cross_entropy if _head_mode(model) == "single_label" else bce_with_logits


@dataclass(frozen=True)
class _Encoded:
    """A labelled set after a model's frozen prefix: (N, D) features, (N, K) labels."""

    X: np.ndarray
    Y: np.ndarray

    __len__ = WindowSet.__len__


def _batches(n: int, batch_size: int, perm: np.ndarray):
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _validation_pass(model, ws: WindowSet | _Encoded, loss_fn, batch_size: int,
                     reconstruction: bool) -> tuple[float, float | None]:
    n = len(ws)
    total_loss = 0.0
    correct = 0
    order = np.arange(n)
    for idx in _batches(n, max(batch_size, 256), order):
        xb = ws.X[idx]
        out = model.forward(xb, train=False)
        target = xb if reconstruction else ws.Y[idx]
        loss, _ = loss_fn(out, target)
        total_loss += loss * len(idx)
        if not reconstruction:
            probs = head_probabilities(out, _head_mode(model))
            correct += int(((probs >= 0.5) == (target >= 0.5)).sum())
    mean_loss = total_loss / n
    if reconstruction:
        return mean_loss, None
    return mean_loss, correct / (n * ws.Y.shape[1])


def _train_loop(model, train: WindowSet, valid: WindowSet, cfg: TrainConfig,
                reconstruction: bool) -> History:
    for what, ws in (("training", train), ("validation", valid)):
        if len(ws) == 0:
            raise DegenerateDataError(f"the {what} set holds zero windows")
    loss_fn = loss_for(model)
    shuffle_rng = Rng(derive_seed(cfg.seed, 1))
    if hasattr(model, "dropout"):
        model.dropout.rng = Rng(derive_seed(cfg.seed, 2))
    # A frozen prefix takes no gradient: encode each window once, train the suffix.
    net = getattr(model, "suffix", model)
    if net is not model:
        train, valid = (_Encoded(model.feature_space(ws.X), ws.Y) for ws in (train, valid))
    state = AdamState(model.store)
    n = len(train)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    history = History()
    best_loss = math.inf
    best_epoch = 0
    best_snapshot = None
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        perm = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_loss = 0.0
        last_lr = cfg.lr_max
        for idx in _batches(n, cfg.batch_size, perm):
            xb = train.X[idx]
            target = xb if reconstruction else train.Y[idx]
            out = net.forward(xb, train=True)
            loss, grad = loss_fn(out, target)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}", epoch=epoch)
            net.backward(grad, input_grad=False)  # nothing reads the gradient of the windows
            lr = (cosine_lr(step, total_steps, cfg.lr_max, cfg.lr_min)
                  if cfg.schedule == "cosine" else cfg.lr_max)
            adam_step(model.store, state, lr)
            last_lr = lr
            step += 1
            epoch_loss += loss * len(idx)
        valid_loss, valid_acc = _validation_pass(net, valid, loss_fn,
                                                 cfg.batch_size, reconstruction)
        if not math.isfinite(valid_loss):
            raise TrainingDivergedError(
                f"non-finite validation loss at epoch {epoch}", epoch=epoch)
        history.train_loss.append(epoch_loss / n)
        history.valid_loss.append(valid_loss)
        history.valid_accuracy.append(valid_acc)
        history.learning_rate.append(last_lr)
        history.wall_seconds.append(time.perf_counter() - t0)
        if valid_loss < best_loss - cfg.min_delta:
            best_loss = valid_loss
            best_epoch = epoch
            if cfg.early_stopping:
                best_snapshot = model.store.snapshot()
        if cfg.early_stopping and (epoch - max(best_epoch, 1)) > cfg.patience:
            history.stopped_early = True
            break
    if cfg.early_stopping and best_snapshot is not None:
        model.store.restore(best_snapshot)
    history.best_epoch = max(best_epoch, 1)
    return history


def train_classifier(model, train: WindowSet, valid: WindowSet,
                     cfg: TrainConfig) -> tuple[object, History]:
    """Mini-batch training against the head loss; returns best-valid weights.

    train/valid must be disjoint and already scaled with train statistics.
    """
    history = _train_loop(model, train, valid, cfg, reconstruction=False)
    return model, history


def train_autoencoder(model, unlabeled: WindowSet, cfg: TrainConfig) -> tuple[object, History]:
    """MSE reconstruction training with a seeded 10 % held-out validation split."""
    n = len(unlabeled)
    n_valid = max(1, int(round(n * 0.1)))
    if n_valid >= n:
        raise ConfigError(f"{n} windows cannot spare a validation holdout")
    perm = Rng(derive_seed(cfg.seed, 3)).permutation(n)
    valid = unlabeled.take(perm[:n_valid])
    train = unlabeled.take(perm[n_valid:])
    history = _train_loop(model, train, valid, cfg, reconstruction=True)
    return model, history
