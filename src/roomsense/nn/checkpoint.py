"""Checkpoint format: JSON manifest + little-endian float64 buffer blob.

``save_checkpoint(path, ...)`` writes ``<path>.json`` (architecture config,
its fingerprint, buffer names/shapes/flags, the blob's SHA-256, seed, step)
and ``<path>.bin`` (the named buffers concatenated in manifest order as
little-endian float64). The round trip is bit-exact; ``load_checkpoint``
reads the manifest as a ``Manifest`` (every key present with its JSON type),
recomputes the architecture fingerprint and checks the blob's length and hash
before reading any buffer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import IntegrityError
from ..schema import read
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
    path = Path(path)
    entries = []
    chunks = []
    for p in store:
        entries.append({"name": p.name, "shape": list(p.value.shape),
                        "trainable": p.trainable})
        chunks.append(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    blob = b"".join(chunks)
    manifest = {
        "architecture": arch,
        "fingerprint": architecture_fingerprint(arch),
        "buffers": entries,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "step": step,
    }
    path.with_suffix(".json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    path.with_suffix(".bin").write_bytes(blob)


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
    path = Path(path)
    manifest = read(Manifest, json.loads(path.with_suffix(".json").read_text(encoding="utf-8")),
                    "checkpoint manifest", IntegrityError)
    fingerprint = architecture_fingerprint(manifest.architecture)
    if fingerprint != manifest.fingerprint:
        raise IntegrityError("checkpoint architecture does not match the manifest's 'fingerprint'")
    for i, entry in enumerate(manifest.buffers):
        if min(entry.shape, default=0) < 0:
            raise IntegrityError(f"checkpoint manifest key buffers[{i}].shape is negative")
    blob = path.with_suffix(".bin").read_bytes()
    sizes = [int(np.prod(entry.shape)) for entry in manifest.buffers]
    if len(blob) != 8 * sum(sizes):
        raise IntegrityError(
            f"checkpoint blob has {len(blob)} bytes, manifest expects {8 * sum(sizes)}")
    if hashlib.sha256(blob).hexdigest() != manifest.blob_sha256:
        raise IntegrityError("checkpoint blob does not match the manifest's blob_sha256")
    data = np.frombuffer(blob, dtype="<f8")
    buffers: dict[str, np.ndarray] = {}
    trainable: dict[str, bool] = {}
    offset = 0
    for entry, size in zip(manifest.buffers, sizes):
        buffers[entry.name] = data[offset:offset + size].reshape(entry.shape).copy()
        trainable[entry.name] = entry.trainable
        offset += size
    return Checkpoint(
        arch=manifest.architecture,
        buffers=buffers,
        trainable=trainable,
        seed=manifest.seed,
        step=manifest.step,
        fingerprint=fingerprint,
    )


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
