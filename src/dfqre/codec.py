"""One JSON codec for the package's frozen dataclasses, driven by their fields.

A field is written under its name or ``metadata["json"]`` (None leaves it
out) and multiplied by ``metadata["scale"]`` if set (such fields are only
written); arrays and tuples become lists, and None values are omitted.
Decoding follows the annotations (int, float, str, dict, np.ndarray,
tuple[X, ...], dict[str, X], X | None, nested dataclasses) and names the
dotted field (a dict value by its key) of an unknown or missing key or a
mistyped value, e.g. ``cfg.json.qubit_presets.slow.t_gate``. A float field,
and each entry of an array field, reads a JSON integer as json reads it
with a fraction (``1e400`` as inf); an array holding a bool is refused.

``dumps``, the package's one JSON writer, indents by one space or, with
``indent=None``, writes one line. A NaN or infinity is no JSON number, so it
raises NumericalError naming the first one's dotted path, a list item as
``[i]`` (``rows[3].runtime_s``): inputs are refused where they enter,
and only a result past the float range gets here.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import reprlib
import typing

import numpy as np

from .errors import NumericalError, ParseError


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


def encode(value):
    if isinstance(value, (int, float, str, dict)):  # JSON as it stands
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    data = {}  # a dataclass
    for name, key, _, _, scale in _fields(type(value)):
        item = getattr(value, name)
        if item is not None:
            data[key] = encode(item) if scale is None else item * scale
    return data


def dumps(obj, indent: int | None = 1) -> str:
    data = encode(obj)
    try:
        return json.dumps(data, indent=indent, allow_nan=False)
    except ValueError:  # only json's refusal of a NaN or infinity
        path, value = _non_finite(data, "")
        raise NumericalError(f"non-finite result {path or 'value'} = "
                             f"{value!r}, not a JSON number") from None


def _non_finite(data, path: str):
    """(dotted path, value) of the first NaN or infinity in the encoded
    ``data``, in the order json writes it, or None."""
    if isinstance(data, float):
        return None if math.isfinite(data) else (path, data)
    if isinstance(data, dict):
        items = ((f"{path}.{key}" if path else str(key), item)
                 for key, item in data.items())
    elif isinstance(data, (list, tuple)):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(data))
    else:
        return None
    for where, item in items:
        found = _non_finite(item, where)
        if found:
            return found
    return None


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
            array, entries = np.array(data), data
            # a bool reads 0 or 1 in a float array, and an integer past int64
            # makes an object array: only then is each entry's type read
            if array.dtype.kind == "f" and not ((array == 0) | (array == 1)).any():
                return array
            for _ in range(array.ndim - 1):
                entries = list(itertools.chain.from_iterable(entries))
            if {*map(type, entries)} <= {int, float}:
                if array.dtype.kind == "O":  # read as float fields are
                    array = np.array([decode(float, item, where)
                                      for item in entries]).reshape(array.shape)
                return array.astype(float, copy=False)
    elif cls in (int, float, str, dict) and not isinstance(data, bool) \
            and isinstance(data, (int, float) if cls is float else cls):
        if cls is float and isinstance(data, int):  # as json reads the same
            return float(f"{data}.0")  # digits as a float: inf past the range
        return data
    kind = ("a list" if ... in args
            else "a JSON object" if args or dataclasses.is_dataclass(cls)
            else "an array of numbers" if cls is np.ndarray
            else cls.__name__)
    raise error(f"{where} must be {kind}, got {reprlib.repr(data)}")


def loads(cls, text: str, where: str, error=ParseError):
    """``decode`` of JSON ``text``; non-JSON text, or JSON nested past the
    reader's recursion limit, is always a ParseError."""
    with reading(where):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where} is not JSON: {exc.msg}",
                             line=exc.lineno) from None
        except RecursionError:
            raise ParseError(f"{where} is nested too deeply to read") from None
        return decode(cls, data, where, error)


@contextlib.contextmanager
def reading(what: str):
    """Report a missing key or a malformed value met while reading
    ``what``, a CSV cell past the csv module's field limit among them, as a
    ParseError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError, csv.Error) as exc:
        raise ParseError(f"{what} is malformed: {exc}") from None


def read_text(path: str) -> str:
    """The UTF-8 text of file ``path``; other bytes are a ParseError."""
    with reading(path), open(path, encoding="utf-8") as handle:
        return handle.read()
