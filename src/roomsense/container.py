"""The binary container of checkpoints and window sets: ``<path>.json``, a
JSON header, and ``<path>.bin``, the arrays concatenated in order, each
little-endian in its own dtype. The header carries the blob's SHA-256 as
``blob_sha256``; ``load`` checks the header's keys, the shapes, the blob's
byte length and then its hash before it builds any array.
"""

from __future__ import annotations

import hashlib
import math
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import IntegrityError
from . import schema


def save(path: str | Path, header: dict, arrays) -> None:
    """Write ``arrays`` as the blob and ``header`` plus ``blob_sha256`` as the
    header, with sorted keys and a 2-space indent, making their directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = b"".join(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes() for a in arrays)
    path.with_suffix(".bin").write_bytes(blob)
    doc = {**header, "blob_sha256": hashlib.sha256(blob).hexdigest()}
    path.with_suffix(".json").write_text(schema.dump(doc), encoding="utf-8")


def load(path: str | Path, header_type, what: str, layout):
    """``(header, arrays)``: the header read as a ``header_type`` dataclass
    (``what`` names it in errors) and one native-order array per (dtype,
    shape) that ``layout(header)`` gives. A failed check is an IntegrityError."""
    path = Path(path)
    header = schema.read_document(path.with_suffix(".json"), what,
                                  lambda text: schema.load(header_type, text, what))
    specs = [(np.dtype(dtype).newbyteorder("<"), tuple(shape)) for dtype, shape in layout(header)]
    if any(min(shape, default=0) < 0 for _, shape in specs):
        raise IntegrityError(f"{what} gives a negative shape: {[list(s) for _, s in specs]}")
    sizes = [dtype.itemsize * math.prod(shape) for dtype, shape in specs]
    bin_path = path.with_suffix(".bin")
    blob = bin_path.read_bytes()
    if len(blob) != sum(sizes):
        raise IntegrityError(f"{bin_path} has {len(blob)} bytes, {what} expects {sum(sizes)}")
    if hashlib.sha256(blob).hexdigest() != header.blob_sha256:
        raise IntegrityError(f"{bin_path} does not match the {what}'s blob_sha256")
    return header, [np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape)
                    .astype(dtype.newbyteorder("="))
                    for (dtype, shape), offset in zip(specs, accumulate(sizes, initial=0))]
