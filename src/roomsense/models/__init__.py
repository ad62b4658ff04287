"""Model zoo: builders, parameter accounting, and checkpoint restore."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigError, IntegrityError
from ..nn.checkpoint import load_checkpoint, restore_into, save_checkpoint
from .autoencoder import (
    EncoderClassifier,
    RecurrentAutoencoder,
    build_autoencoder,
    build_encoder_classifier,
)
from .config import (
    AutoencoderConfig,
    FcnConfig,
    HeadConfig,
    InceptionConfig,
    LstmConfig,
    arch_fields,
    from_arch,
    to_arch,
)
from .fcn import FcnClassifier, build_fcn
from .inception import InceptionNetwork, build_inception
from .lstm import LstmClassifier, build_lstm_classifier

__all__ = [
    "AutoencoderConfig", "FcnConfig", "HeadConfig", "InceptionConfig", "LstmConfig",
    "FcnClassifier", "LstmClassifier", "InceptionNetwork",
    "RecurrentAutoencoder", "EncoderClassifier",
    "build_fcn", "build_lstm_classifier", "build_inception",
    "build_autoencoder", "build_encoder_classifier",
    "build_model", "model_from_checkpoint", "param_count", "save_model",
    "KINDS", "config_from_arch", "model_arch",
]

# kind -> (config class, model class) for every model whose arch dict is
# to_arch(config, kind). An encoder classifier's arch nests its autoencoder's
# arch and its head's fields instead.
KINDS = {model.kind: (config, model) for config, model in (
    (FcnConfig, FcnClassifier), (LstmConfig, LstmClassifier),
    (InceptionConfig, InceptionNetwork), (AutoencoderConfig, RecurrentAutoencoder))}


def model_arch(model) -> dict:
    if isinstance(model, EncoderClassifier):
        return {"kind": model.kind,
                "autoencoder": to_arch(model.ae_config, RecurrentAutoencoder.kind),
                "head": arch_fields(model.config)}
    return to_arch(model.config, model.kind)


@dataclass(frozen=True)
class _EncoderClassifierArch:
    autoencoder: dict  # the autoencoder's own arch dict
    head: HeadConfig


def config_from_arch(arch: dict):
    """The config of an arch dict; an encoder classifier's is (autoencoder, head)."""
    kind = arch.get("kind") if isinstance(arch, dict) else None
    if kind == EncoderClassifier.kind:
        parts = from_arch(_EncoderClassifierArch, arch, kind)
        return (from_arch(AutoencoderConfig, parts.autoencoder, RecurrentAutoencoder.kind),
                parts.head)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown architecture kind {kind!r}")
    return from_arch(KINDS[kind][0], arch, kind)


def build_model(arch: dict, seed: int = 0):
    """Instantiate a model from its architecture dict."""
    config = config_from_arch(arch)
    if arch["kind"] == EncoderClassifier.kind:
        return EncoderClassifier(*config, seed)
    return KINDS[arch["kind"]][1](config, seed)


def save_model(model, path: str | Path, step: int = 0) -> None:
    save_checkpoint(path, model_arch(model), model.store, seed=model.seed, step=step)


def model_from_checkpoint(path: str | Path, expect_fingerprint: str | None = None):
    ckpt = load_checkpoint(path)
    if expect_fingerprint is not None and ckpt.fingerprint != expect_fingerprint:
        raise IntegrityError(
            f"architecture fingerprint mismatch: checkpoint {ckpt.fingerprint[:12]}..., "
            f"expected {expect_fingerprint[:12]}...")
    model = build_model(ckpt.arch, seed=ckpt.seed)
    restore_into(model.store, ckpt)
    return model


def param_count(model_or_store) -> int:
    """Trainable parameter count under the engine's conventions."""
    store = getattr(model_or_store, "store", model_or_store)
    return store.trainable_count()
