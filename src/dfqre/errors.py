"""Exception hierarchy with machine-readable categories.

The CLI maps every exception below to a JSON error record whose
``category`` field scripts can dispatch on.
"""

from __future__ import annotations

import json


class DfqreError(Exception):
    """Base class for all package errors."""

    category = "error"


class ParseError(DfqreError):
    """Malformed input text. Carries a 1-based line number when known."""

    category = "parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyInputError(ParseError):
    category = "empty-input"


class ValidationError(DfqreError):
    """Arguments or data violate a documented precondition."""

    category = "invalid-input"


class NumericalError(DfqreError):
    """A numerical routine produced non-finite or inconsistent output."""

    category = "numerical"


class ResourceLimitError(DfqreError):
    """Requested dense-oracle problem size exceeds the desk-scale cap."""

    category = "resource-limit"


class DistanceSaturationError(DfqreError):
    """No surface-code distance up to the search cap meets the budget."""

    category = "distance-saturation"


class FactoryBudgetError(DfqreError):
    """Requested per-T-state error is unreachable within three rounds."""

    category = "factory-budget"


def decode_json(text: str, what: str, decode=None):
    """The JSON document ``text``, passed through ``decode`` if given.

    Text that is not JSON, or a document ``decode`` cannot read (a missing
    key, a value of the wrong type), raises ParseError naming ``what``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not JSON: {exc.msg}",
                         line=exc.lineno) from None
    try:
        return data if decode is None else decode(data)
    except KeyError as exc:
        raise ParseError(f"{what} lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{what} is malformed: {exc}") from None
