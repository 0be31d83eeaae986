"""Exception hierarchy shared across the package.

Every error raised deliberately by this library derives from
:class:`DsbsError`, so callers can catch one base class.  The subclasses
also inherit from the closest builtin (``ValueError``/``ArithmeticError``)
to keep duck-typed callers working.
"""

from __future__ import annotations

__all__ = [
    "DsbsError",
    "InputDomainError",
    "NoRootError",
    "InconsistencyError",
]


class DsbsError(Exception):
    """Base class for all errors raised by this package."""


class InputDomainError(DsbsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoRootError(DsbsError, ArithmeticError):
    """A bracketed search found no sign change.

    For the stationarity equation this signals a parameter regime without
    an interior solution rather than a numerical failure.
    """


class InconsistencyError(DsbsError, ArithmeticError):
    """A reconstruction's consistency residual exceeded its tolerance."""
