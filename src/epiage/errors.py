"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all package errors."""


class DomainError(ModelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(ModelError, ValueError):
    """A parameter set violates a structural requirement (e.g. mu <= 0)."""


class ShapeError(ModelError, ValueError):
    """Array arguments do not share the expected shape."""


class ToleranceError(ModelError, RuntimeError):
    """Refinement stopped before reaching the requested tolerance.

    Carries the best available estimate in ``best``.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class NumericsError(ModelError, RuntimeError):
    """A numerical evaluation produced a non-finite value."""


class TimeStepError(ModelError, RuntimeError):
    """Time-stepping rejected: CFL/positivity violated.

    ``suggested_dt`` is the largest step that passes the stability gate;
    ``node`` holds the offending (time index, age index) when the failure
    occurred mid-run.
    """

    def __init__(self, message, suggested_dt, node=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt
        self.node = node


class ConfigError(ModelError, ValueError):
    """Run-configuration text could not be parsed or validated.

    ``line`` is the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
