"""Exception types shared across the library, and the finite-input check."""

import math
import numbers


class FpcreditError(Exception):
    """Base of every error the library raises on purpose."""


class DomainError(FpcreditError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class ConfigurationError(FpcreditError, ValueError):
    """A configuration value is inconsistent (e.g. an unknown payoff convention)."""


class CalibrationError(FpcreditError, RuntimeError):
    """A bootstrap or best-fit step could not be completed.

    Carries solver diagnostics so failures are actionable.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceError(CalibrationError):
    """An iteration stopped short of its tolerance; the diagnostics carry its trace."""


class DegenerateInputError(FpcreditError, ValueError):
    """The requested quantity is undefined for this input (e.g. fair spread with zero annuity)."""


def _is_finite_number(value) -> bool:
    if type(value) is float:  # the common case, without the slow ABC check
        return math.isfinite(value)
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_finite(name, value):
    if isinstance(value, tuple):  # constructors store sequences as tuples: a list is no number
        for item in value:
            _check_finite(name, item)
    elif not _is_finite_number(value):
        raise DomainError(f"{name} must be a finite number, got {value!r}")


def require_finite(obj, *names):
    """Raise DomainError unless each named attribute of `obj` is a finite real
    number, or a tuple (possibly nested) of them."""
    for name in names:
        _check_finite(name, getattr(obj, name))
