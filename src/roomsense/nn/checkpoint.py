"""Checkpoint format: JSON manifest + little-endian float64 buffer blob.

``save_checkpoint(path, ...)`` writes ``<path>.json`` (architecture config,
its fingerprint, buffer names/shapes/flags, the blob's SHA-256, seed, step)
and ``<path>.bin`` (the named buffers concatenated in manifest order as
little-endian float64). The round trip is bit-exact; ``load_checkpoint``
checks that every manifest key is present with its JSON type, recomputes the
architecture fingerprint and checks the blob's length and hash before reading
any buffer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _field(doc, key: str, kind, what: str = "checkpoint manifest"):
    """``doc[key]``, or IntegrityError naming ``key`` when it is missing or not a ``kind``."""
    if not isinstance(doc, dict) or key not in doc:
        raise IntegrityError(f"{what} is missing key {key!r}")
    value = doc[key]
    # bool is an int subclass; JSON true is not a seed, step or shape entry
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise IntegrityError(f"{what} key {key!r} has the wrong type: {value!r}")
    return value


def _buffer_entry(entry) -> tuple[str, list[int], bool]:
    name = _field(entry, "name", str, "checkpoint buffer entry")
    what = f"checkpoint buffer {name!r}"
    shape = _field(entry, "shape", list, what)
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
        raise IntegrityError(f"{what} has an invalid shape {shape!r}")
    return name, shape, _field(entry, "trainable", bool, what)


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    manifest = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    arch = _field(manifest, "architecture", dict)
    fingerprint = architecture_fingerprint(arch)
    if fingerprint != _field(manifest, "fingerprint", str):
        raise IntegrityError("checkpoint architecture does not match the manifest's fingerprint")
    entries = [_buffer_entry(e) for e in _field(manifest, "buffers", list)]
    seed = _field(manifest, "seed", int)
    step = _field(manifest, "step", int)
    blob = path.with_suffix(".bin").read_bytes()
    sizes = [int(np.prod(shape)) for _, shape, _ in entries]
    if len(blob) != 8 * sum(sizes):
        raise IntegrityError(
            f"checkpoint blob has {len(blob)} bytes, manifest expects {8 * sum(sizes)}")
    if hashlib.sha256(blob).hexdigest() != _field(manifest, "blob_sha256", str):
        raise IntegrityError("checkpoint blob does not match the manifest's blob_sha256")
    data = np.frombuffer(blob, dtype="<f8")
    buffers: dict[str, np.ndarray] = {}
    trainable: dict[str, bool] = {}
    offset = 0
    for (name, shape, flag), size in zip(entries, sizes):
        buffers[name] = data[offset:offset + size].reshape(shape).copy()
        trainable[name] = flag
        offset += size
    return Checkpoint(
        arch=arch,
        buffers=buffers,
        trainable=trainable,
        seed=seed,
        step=step,
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
