"""Declarative architecture configs: the one place that lists each model's fields.

A model's arch dict is ``{"kind": kind, **fields}`` (``to_arch``), tuples
written as lists. ``from_arch`` reads the fields back through
``roomsense.schema.read``, which names any unknown or missing key and any value
whose JSON type does not fit the field's annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ConfigError
from ..schema import read

HEAD_MODES = ("multi_label", "single_label")


def _check_head_mode(mode: str) -> None:
    if mode not in HEAD_MODES:
        raise ConfigError(f"head_mode must be one of {HEAD_MODES}, got {mode!r}")


def field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def arch_fields(config) -> dict:
    """A config's fields as JSON values: tuples become lists."""
    doc = {}
    for name in field_names(config):
        value = getattr(config, name)
        doc[name] = list(value) if isinstance(value, tuple) else value
    return doc


def to_arch(config, kind: str) -> dict:
    return {"kind": kind, **arch_fields(config)}


def from_arch(cls, arch: dict, kind: str):
    """Parse the arch dict of a ``kind`` model whose config class is ``cls``."""
    found = arch.get("kind") if isinstance(arch, dict) else None
    if found != kind:
        raise ConfigError(f"expected a {kind!r} architecture, got {found!r}")
    return read(cls, {k: v for k, v in arch.items() if k != "kind"},
                f"{kind} architecture", complete=True)


@dataclass(frozen=True)
class FcnConfig:
    """Stack of conv+batchnorm+relu blocks, global average pooling, linear head."""

    in_channels: int
    filters: tuple[int, ...] = (128, 256, 128)
    kernels: tuple[int, ...] = (8, 5, 3)
    classes: int = 2
    head_mode: str = "multi_label"

    def __post_init__(self):
        if len(self.filters) != len(self.kernels) or not self.filters:
            raise ConfigError("filters and kernels must have equal length >= 1")
        _check_head_mode(self.head_mode)


@dataclass(frozen=True)
class LstmConfig:
    """Single recurrent layer, last-step readout, dropout, linear head."""

    in_channels: int
    hidden: int = 100
    bidirectional: bool = False
    dropout: float = 0.0
    classes: int = 2
    head_mode: str = "multi_label"

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigError("hidden size must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")
        _check_head_mode(self.head_mode)


@dataclass(frozen=True)
class InceptionConfig:
    """Bottlenecked multi-scale conv modules with residual shortcuts every 3."""

    in_channels: int
    filters: int = 32
    bottleneck: int = 32
    branch_kernels: tuple[int, ...] = (10, 20, 40)
    depth: int = 6
    classes: int = 2
    head_mode: str = "multi_label"

    def __post_init__(self):
        if self.depth % 3 != 0 or self.depth < 3:
            raise ConfigError("depth must be a positive multiple of 3")
        _check_head_mode(self.head_mode)


@dataclass(frozen=True)
class AutoencoderConfig:
    """Stacked-LSTM encoder {h1, h2, latent}; decoder mirrors {latent, h2, h1}."""

    in_channels: int = 17
    encoder_hidden: tuple[int, ...] = (128, 64)
    latent: int = 10
    window: int = 7

    def __post_init__(self):
        if self.latent < 1 or any(h < 1 for h in self.encoder_hidden):
            raise ConfigError("hidden and latent sizes must be >= 1")
        if self.window < 1:
            raise ConfigError("window length must be >= 1")

    @property
    def encoder_sizes(self) -> tuple[int, ...]:
        return (*self.encoder_hidden, self.latent)

    @property
    def decoder_sizes(self) -> tuple[int, ...]:
        return (self.latent, *reversed(self.encoder_hidden))


@dataclass(frozen=True)
class HeadConfig:
    """Shallow classifier on top of a frozen encoder."""

    hidden: int = 100
    classes: int = 2
    head_mode: str = "multi_label"

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigError("head hidden size must be >= 1")
        _check_head_mode(self.head_mode)
