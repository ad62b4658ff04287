"""The one check of parsed JSON against dataclass annotations.

``read(tp, value, what, error)`` returns ``value`` as a ``tp``, building
dataclasses from JSON objects and tuples from lists. An unknown or missing
key, or a value of the wrong JSON type, raises ``error`` naming the key path,
such as ``decisions.'person'`` or ``buffers[3].shape``: ConfigError (CLI exit
1) for config objects, IntegrityError (exit 2) for documents read from disk.
Annotations: int, float, str, bool and unions of them (``float | None``),
``list[T]``, ``tuple[T, ...]``, ``tuple[T, T]``, ``dict[str, T]``, bare
``list`` and ``dict``, dataclasses, and scalars joined with one of those
(``list[str] | None``, ``str | dict``). JSON ``true`` is not a number, and a
float also takes a JSON int that float64 can hold. ``dump`` writes and
``load`` reads every JSON document; neither lets NaN or ±Infinity through, as
RFC 8259 JSON has none.
"""

from __future__ import annotations

import json
import math
import reprlib
import types
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, IntegrityError

_SCALARS = {int: {int}, float: {int, float}, str: {str}, bool: {bool}, type(None): {type(None)}}


@cache
def _scalar_types(tp) -> set | None:
    """The types of the JSON scalars ``tp`` takes, a union's together; None if none."""
    members = get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    return set().union(*map(_SCALARS.get, members)) if set(members) <= set(_SCALARS) else None


@cache
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """Per field of a dataclass: its annotation and whether it must be given."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


@cache
def _int_as_float(tp) -> bool:
    """Whether ``tp`` takes a JSON int only as a float."""
    members = get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    return float in members and int not in members


def _beyond_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _key(path: str) -> str:
    """A top-level key quoted (``'seed'``), a nested path as built (``decisions.'person'``)."""
    return repr(path) if path.isidentifier() else path


def _where(what: str, path: str) -> str:
    return f"{what} key {_key(path)}" if path else what


def read(tp, value, what: str, error: type[Exception] = ConfigError,
         complete: bool = False, path: str = ""):
    """``value`` checked against ``tp``; ``what`` names the document in errors.

    A dataclass field with a default may be left out unless ``complete``. A
    list or object of scalars is checked as a whole, by the set of its item
    types in one pass; other items are checked one by one. ``path`` locates
    ``value`` inside the document.
    """
    shown = tp
    if isinstance(tp, types.UnionType) and _scalar_types(tp) is None:  # scalars and one other
        (other,) = (m for m in get_args(tp) if m not in _SCALARS)
        tp = next((m for m in get_args(tp) if type(value) in _SCALARS.get(m, ())), other)
    origin, args = get_origin(tp), get_args(tp)
    item = (args[-1] if origin is dict else args[0]) if args else None
    items = _scalar_types(item)
    if (scalars := _scalar_types(tp)) is not None:
        ok = type(value) in scalars
        if ok and type(value) is int and _int_as_float(tp) and _beyond_float(value):
            raise error(f"{_where(what, path)} is beyond the float64 range: "
                        f"{reprlib.repr(value)}")
    else:
        if origin in (list, tuple) or tp is list:
            fixed = origin is tuple and args[-1] is not Ellipsis  # tuple[T, T]: one item type
            ok = isinstance(value, (list, tuple)) and (not fixed or len(value) == len(args))
            kinds = set(map(type, value)) if ok and items is not None else set()
        else:
            ok = isinstance(value, dict)
            kinds = set(map(type, value.values())) if ok and items is not None else set()
        ok = ok and (items is None or kinds <= items)
        if int in kinds and _int_as_float(item):
            items = None  # checked item by item below, where an int beyond float64 is named
    if not ok:
        expected = (str(shown) if shown is not tp
                    else "a JSON object" if is_dataclass(tp) or tp is dict
                    else str(tp) if origin else tp.__name__)
        raise error(f"{_where(what, path)} must be {expected}, got {reprlib.repr(value)}")
    if is_dataclass(tp):
        spec = _fields(tp)
        at = {name: f"{path}.{name}" if path else name for name in (*spec, *value)}
        for name in value:
            if name not in spec:
                raise error(f"unknown {what} key {_key(at[name])}")
        for name, (_, required) in spec.items():
            if name not in value and (required or complete):
                raise error(f"{what} is missing key {_key(at[name])}")
        return tp(**{name: read(spec[name][0], v, what, error, complete, at[name])
                     for name, v in value.items()})
    if origin in (list, tuple) and items is None:
        value = [read(item, v, what, error, complete, f"{path}[{i}]") for i, v in enumerate(value)]
    elif origin is dict and items is None:
        value = {k: read(item, v, what, error, complete, f"{path}.{k!r}" if path else repr(k))
                 for k, v in value.items()}
    return tuple(value) if origin is tuple else value


class _NotJson(str):
    """NaN, Infinity or -Infinity as ``parse`` reads it; ``read`` takes it nowhere."""
    __repr__ = str.__str__


def parse(text: str) -> tuple[object, list[str]]:
    """``json.loads`` of ``text``, and the NaN, Infinity and -Infinity
    literals it holds, in order; each stands in the value as a placeholder
    that ``read`` refuses."""
    found: list[str] = []
    value = json.loads(text, parse_constant=lambda name: found.append(name) or _NotJson(name))
    return value, found


def placeholder(value, path: str = "") -> str | None:
    """``key holds literal`` for the first ``parse`` placeholder in ``value``, or
    the first float it read as infinite (such as 1e999), at ``path``."""
    if isinstance(value, _NotJson) or isinstance(value, float) and not math.isfinite(value):
        return f"{_key(path)} holds {value}"
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    return next(filter(None, (placeholder(v, f"{path}[{k}]" if isinstance(k, int) else
                                          f"{path}.{k}" if path else k) for k, v in items)), None)


def load(tp, text: str, what: str):
    """``read`` of JSON document ``text`` as a ``tp``, raising IntegrityError
    naming ``what``; a NaN or infinite literal is refused too."""
    value, found = parse(text)
    value = read(tp, value, what, IntegrityError)
    if found:  # under an annotation such as bare ``dict``, which takes any value
        raise IntegrityError(f"{what} holds {found[0]}, not a JSON number")
    return value


def dump(doc) -> str:
    """The text of JSON document ``doc``: sorted keys, a 2-space indent and a
    final newline. A NaN or infinite float raises IntegrityError."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise IntegrityError(f"cannot write a JSON document: {exc}") from None


def read_document(path: str | Path, what: str, parse):
    """``parse`` of the UTF-8 text at ``path``. Bytes that are not UTF-8, and
    text ``parse`` finds is not JSON, raise IntegrityError naming ``what`` and
    the path; the message keeps the decoder's own text."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{what} {path} is not UTF-8 JSON: {exc}") from None
