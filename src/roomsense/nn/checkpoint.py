"""Checkpoints: a ``roomsense.container`` whose header is the manifest.

``save_checkpoint(path, ...)`` writes the manifest (architecture config, its
fingerprint, buffer names/shapes/flags, seed, step and ``blob_sha256``) to
``<path>.json`` and the store's value arena (the buffers in manifest order) as
little-endian float64 to ``<path>.bin``; the round trip is bit-exact. ``load_checkpoint`` lets the
container check the manifest's keys and the blob before it reads any buffer,
then recomputes the architecture fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import container
from ..errors import IntegrityError
from .params import ParamStore


def architecture_fingerprint(arch: dict) -> str:
    canonical = json.dumps(arch, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    arch: dict
    buffers: dict[str, np.ndarray]
    trainable: dict[str, bool]
    seed: int
    step: int
    fingerprint: str


def save_checkpoint(path: str | Path, arch: dict, store: ParamStore,
                    seed: int = 0, step: int = 0) -> None:
    buffers = [{"name": p.name, "shape": list(p.value.shape), "trainable": p.trainable}
               for p in store]
    container.save(path, {"architecture": arch, "fingerprint": architecture_fingerprint(arch),
                          "buffers": buffers, "seed": seed, "step": step},
                   [store.value_arena])


@dataclass(frozen=True)
class BufferEntry:
    name: str
    shape: tuple[int, ...]
    trainable: bool


@dataclass(frozen=True)
class Manifest:
    """The ``<path>.json`` half of a checkpoint, as ``save_checkpoint`` writes it."""

    architecture: dict
    fingerprint: str
    buffers: tuple[BufferEntry, ...]
    blob_sha256: str
    seed: int
    step: int


def load_checkpoint(path: str | Path) -> Checkpoint:
    manifest, values = container.load(path, Manifest, "checkpoint manifest",
                                      lambda m: [("<f8", entry.shape) for entry in m.buffers])
    fingerprint = architecture_fingerprint(manifest.architecture)
    if fingerprint != manifest.fingerprint:
        raise IntegrityError("checkpoint architecture does not match the manifest's 'fingerprint'")
    names = [entry.name for entry in manifest.buffers]
    return Checkpoint(arch=manifest.architecture, buffers=dict(zip(names, values)),
                      trainable={entry.name: entry.trainable for entry in manifest.buffers},
                      seed=manifest.seed, step=manifest.step, fingerprint=fingerprint)


def restore_into(store: ParamStore, ckpt: Checkpoint) -> None:
    """Copy checkpoint buffers into an already-built store (names must match)."""
    names = set(store.names())
    if names != set(ckpt.buffers):
        missing = names.symmetric_difference(ckpt.buffers)
        raise IntegrityError(f"checkpoint/model buffer mismatch: {sorted(missing)[:5]}")
    for name, value in ckpt.buffers.items():
        p = store[name]
        if p.value.shape != value.shape:
            raise IntegrityError(f"buffer {name!r} shape {value.shape} != {p.value.shape}")
        p.value[...] = value
        p.trainable = ckpt.trainable[name]
