"""Exception hierarchy with machine-readable categories.

The CLI maps every exception below to a JSON error record whose
``category`` field scripts can dispatch on; a command line that argparse
refuses is ``usage``, with argparse's message.
"""

from __future__ import annotations


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
    """Requested dense array size exceeds the desk-scale cap or memory."""

    category = "resource-limit"


class DistanceSaturationError(DfqreError):
    """No surface-code distance up to the search cap meets the budget."""

    category = "distance-saturation"


class FactoryBudgetError(DfqreError):
    """Requested per-T-state error is unreachable within three rounds."""

    category = "factory-budget"


class UsageError(DfqreError):
    """A command line the CLI's argument parser refuses."""

    category = "usage"
