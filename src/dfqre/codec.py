"""One JSON codec for the package's frozen dataclasses, driven by their fields.

A field is written under its name or ``metadata["json"]`` (None leaves it
out) and multiplied by ``metadata["scale"]`` if set (such fields are only
written); arrays and tuples become lists, and None values are omitted.
Decoding follows the annotations (int, float, str, dict, np.ndarray,
tuple[X, ...], dict[str, X], X | None, nested dataclasses) and names the
dotted field (a dict value by its key) of an unknown or missing key or a
mistyped value, e.g. ``cfg.json.qubit_presets.slow.t_gate``.

``dumps`` writes exactly the text of ``json.dumps(..., indent=1)``. With an
indent, json falls back to its pure-Python encoder, so a small layout
writer walks dicts and lists of containers itself and hands each list of
numbers (items of type int, float, bool or None exactly) to json's C
encoder in one call, turning its ``", "`` separators into indented line
breaks. Both encoders write a float as ``float.__repr__`` (and NaN,
Infinity as json does), so the bytes are the same. Only number lists take
this path: a string may contain ``", "``, so a list holding one is written
item by item.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import reprlib
import typing

import numpy as np

from .errors import ParseError


@functools.cache
def _fields(cls) -> tuple:
    """(attribute, JSON key, type, required, scale) per JSON field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("json", f.name), hints[f.name],
         f.default is dataclasses.MISSING
         and f.default_factory is dataclasses.MISSING,
         f.metadata.get("scale"))
        for f in dataclasses.fields(cls)
        if f.metadata.get("json", f.name) is not None)


def _encode(value):
    if isinstance(value, (int, float, str, dict)):  # JSON as it stands
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    data = {}  # a dataclass
    for name, key, _, _, scale in _fields(type(value)):
        item = getattr(value, name)
        if item is not None:
            data[key] = _encode(item) if scale is None else item * scale
    return data


_C_ENCODER = json.JSONEncoder(check_circular=False)
_NUMBER_TYPES = frozenset((int, float, bool, type(None)))


def dumps(obj) -> str:
    parts = []
    _layout(_encode(obj), "\n", parts)
    return "".join(parts)


def _layout(value, newline: str, parts: list) -> None:
    """Append the ``json.dumps(value, indent=1)`` text of ``value``, whose
    lines start with ``newline``, to ``parts``."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        parts.append(_C_ENCODER.encode(value))  # a scalar, [] or {}
        return
    inner = newline + " "
    if isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            # the key as json writes it, a non-string one turned to text
            key = _C_ENCODER.encode({key: 0})[1:-4]
            parts.append(f"{',' if i else ''}{inner}{key}: ")
            _layout(item, inner, parts)
        parts.append(newline + "}")
    elif _NUMBER_TYPES.issuperset(map(type, value)):
        text = _C_ENCODER.encode(value)
        parts.append(f"[{inner}{text[1:-1].replace(', ', ',' + inner)}{newline}]")
    else:
        parts.append("[")
        for i, item in enumerate(value):
            parts.append(f"{',' if i else ''}{inner}")
            _layout(item, inner, parts)
        parts.append(newline + "]")


def decode(cls, data, where: str, error=ParseError):
    """The ``cls`` that the decoded JSON value ``data`` describes; a fault
    in ``data`` raises ``error`` naming its field under ``where``."""
    if dataclasses.is_dataclass(cls) and isinstance(data, dict):
        table = _fields(cls)
        known = {key for _, key, *_ in table}
        unknown = [key for key in data if key not in known]
        if unknown:
            raise error(f"unknown key {unknown[0]!r} in {where}")
        kwargs = {}
        for name, key, tp, required, _ in table:
            if key in data:
                kwargs[name] = decode(tp, data[key], f"{where}.{key}", error)
            elif required:
                raise error(f"{where} lacks key {key!r}")
        return cls(**kwargs)
    args = typing.get_args(cls)
    if type(None) in args:  # X | None
        return None if data is None else decode(args[0], data, where, error)
    if args and isinstance(data, list) and ... in args:  # tuple[X, ...]
        return tuple(decode(args[0], item, f"{where}[{i}]", error)
                     for i, item in enumerate(data))
    if args and isinstance(data, dict) and ... not in args:  # dict[str, X]
        return {key: decode(args[1], item, f"{where}.{key}", error)
                for key, item in data.items()}
    if cls is np.ndarray and isinstance(data, list):
        with contextlib.suppress(ValueError):  # ragged nesting
            array = np.array(data)
            if array.dtype.kind in "iuf":
                return array.astype(float, copy=False)
    elif cls in (int, float, str, dict) and not isinstance(data, bool) \
            and isinstance(data, (int, float) if cls is float else cls):
        return data
    kind = ("a list" if ... in args
            else "a JSON object" if args or dataclasses.is_dataclass(cls)
            else "an array of numbers" if cls is np.ndarray
            else cls.__name__)
    raise error(f"{where} must be {kind}, got {reprlib.repr(data)}")


def loads(cls, text: str, where: str, error=ParseError):
    """``decode`` of JSON ``text``; non-JSON text is always a ParseError."""
    with reading(where):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where} is not JSON: {exc.msg}",
                             line=exc.lineno) from None
        return decode(cls, data, where, error)


@contextlib.contextmanager
def reading(what: str):
    """Report a missing key or a malformed value met while reading
    ``what`` as a ParseError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{what} is malformed: {exc}") from None


def read_text(path: str) -> str:
    """The UTF-8 text of file ``path``; other bytes are a ParseError."""
    with reading(path), open(path, encoding="utf-8") as handle:
        return handle.read()
