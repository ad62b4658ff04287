"""Recurrent autoencoder and the frozen-encoder classifier built from it.

Encoder: three stacked sequence-to-sequence LSTM layers; the latent code is
the last-step hidden state of the third. Decoder: the latent vector repeated
across the window feeds three stacked LSTM layers in mirrored sizes, followed
by a per-step dense map back to the input channels.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..nn import Dense, Lstm, ParamStore
from ..nn.checkpoint import Checkpoint
from ..nn.layers import Relu, chunked, head_probabilities
from ..rng import Rng
from .config import AutoencoderConfig, HeadConfig, from_arch

_ENCODER_PREFIX = "enc"


def _build_encoder(store: ParamStore, config: AutoencoderConfig, rng: Rng) -> list[Lstm]:
    layers = []
    in_ch = config.in_channels
    sizes = config.encoder_sizes
    for i, h in enumerate(sizes):
        last = i == len(sizes) - 1
        layers.append(Lstm(store, f"{_ENCODER_PREFIX}{i}", in_ch, h, rng,
                           return_sequence=not last))
        in_ch = h
    return layers


def _run_encoder(encoder: list[Lstm], x: np.ndarray, train: bool) -> np.ndarray:
    for layer in encoder:
        x = layer.forward(x, train)
    return x


class RecurrentAutoencoder:
    kind = "autoencoder"

    def __init__(self, config: AutoencoderConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.store = ParamStore()
        rng = Rng(seed)
        self.encoder = _build_encoder(self.store, config, rng)
        self.decoder: list[Lstm] = []
        in_ch = config.latent
        for i, h in enumerate(config.decoder_sizes):
            self.decoder.append(Lstm(self.store, f"dec{i}", in_ch, h, rng,
                                     return_sequence=True))
            in_ch = h
        self.out_dense = Dense(self.store, "out", in_ch, config.in_channels, rng)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Latent codes in eval mode, in chunks."""
        return chunked(lambda xb: _run_encoder(self.encoder, xb, False), x)

    def decode(self, z: np.ndarray, length: int, train: bool) -> np.ndarray:
        x = np.repeat(z[:, :, None], length, axis=2)
        for layer in self.decoder:
            x = layer.forward(x, train)
        n, c, _ = x.shape
        flat = np.ascontiguousarray(np.moveaxis(x, 1, 2)).reshape(n * length, c)
        out = self.out_dense.forward(flat, train)
        return np.moveaxis(out.reshape(n, length, -1), 2, 1)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.decode(_run_encoder(self.encoder, x, train), x.shape[2], train)

    def backward(self, drecon: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        n, _, length = drecon.shape
        dflat = np.ascontiguousarray(np.moveaxis(drecon, 1, 2)).reshape(n * length, -1)
        dx = self.out_dense.backward(dflat)
        dx = np.moveaxis(dx.reshape(n, length, -1), 2, 1)
        for layer in reversed(self.decoder):
            dx = layer.backward(dx)
        dx = dx.sum(axis=2)  # repeated latent collects gradient from every step
        for i in range(len(self.encoder) - 1, -1, -1):
            dx = self.encoder[i].backward(dx, input_grad or i > 0)
        return dx

    feature_space = encode

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        raise ConfigError("an autoencoder has no classification head")


class _DenseHead:
    """fc1 -> relu -> fc2 over (N, latent) codes."""

    def __init__(self, store: ParamStore, latent: int, config: HeadConfig, rng: Rng):
        self.config = config  # the training loop reads head_mode for loss and accuracy
        self.fc1 = Dense(store, "head.fc1", latent, config.hidden, rng)
        self.act = Relu()
        self.fc2 = Dense(store, "head.fc2", config.hidden, config.classes, rng)

    def forward(self, z: np.ndarray, train: bool = False) -> np.ndarray:
        return self.fc2.forward(self.act.forward(self.fc1.forward(z, train), train), train)

    def backward(self, dlogits: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        return self.fc1.backward(self.act.backward(self.fc2.backward(dlogits)), input_grad)


class EncoderClassifier:
    """Frozen LSTM encoder (the prefix, ``feature_space``) under a trainable head ``suffix``."""

    kind = "encoder_classifier"

    def __init__(self, ae_config: AutoencoderConfig, head: HeadConfig, seed: int = 0,
                 encoder_buffers: dict[str, np.ndarray] | None = None):
        self.ae_config = ae_config
        self.config = head
        self.seed = seed
        self.store = ParamStore()
        rng = Rng(seed)
        self.encoder = _build_encoder(self.store, ae_config, rng)
        if encoder_buffers is not None:
            for name, value in encoder_buffers.items():
                if name in self.store:
                    self.store[name].value[...] = value
        self.store.set_trainable(False, prefix=_ENCODER_PREFIX)
        self.suffix = _DenseHead(self.store, ae_config.latent, head, rng)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.suffix.forward(_run_encoder(self.encoder, x, False), train)

    def backward(self, dlogits: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        # encoder is frozen; gradient stops at the latent code
        return self.suffix.backward(dlogits, input_grad)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return chunked(lambda xb: head_probabilities(self.forward(xb), self.config.head_mode), x)

    # the autoencoder's own encode loop, run over this model's frozen copy
    feature_space = RecurrentAutoencoder.encode


def build_autoencoder(config: AutoencoderConfig, seed: int = 0) -> RecurrentAutoencoder:
    return RecurrentAutoencoder(config, seed)


def build_encoder_classifier(source: RecurrentAutoencoder | Checkpoint,
                             head: HeadConfig, seed: int = 0) -> EncoderClassifier:
    """Copy a trained encoder (model or checkpoint) under a trainable head."""
    if isinstance(source, RecurrentAutoencoder):
        ae_config = source.config
        buffers = {p.name: p.value for p in source.store
                   if p.name.startswith(_ENCODER_PREFIX)}
    else:
        ae_config = from_arch(AutoencoderConfig, source.arch, RecurrentAutoencoder.kind)
        buffers = {name: value for name, value in source.buffers.items()
                   if name.startswith(_ENCODER_PREFIX)}
    return EncoderClassifier(ae_config, head, seed=seed, encoder_buffers=buffers)
