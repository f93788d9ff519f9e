"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A configuration value is inconsistent (e.g. pricing grid coarser than the schedule)."""


class CalibrationError(RuntimeError):
    """A bootstrap or best-fit step could not be completed.

    Carries solver diagnostics so failures are actionable.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceError(CalibrationError):
    """An iteration stopped short of its tolerance; the diagnostics carry its trace."""


class DegenerateInputError(ValueError):
    """The requested quantity is undefined for this input (e.g. fair spread with zero annuity)."""
