"""Exception types shared across the package, and the one check of a
count argument and of a moment order q."""

import math
import operator


class InvalidDimensionError(ValueError):
    """Space dimension must be a positive integer."""


class UnsupportedExponentError(ValueError):
    """l^p smoothness is only available for p >= 2."""


class InvalidLevelError(ValueError):
    """Probability level outside its admissible range."""


class InvalidThresholdError(ValueError):
    """Tail threshold must be positive."""


class InvalidQError(ValueError):
    """Moment order q must exceed 2."""


class InfiniteMomentError(ValueError):
    """Requested moment order at or above the distribution's tail index."""


class UnsupportedFunctionError(TypeError):
    """Doob construction requires a coordinate-separable function spec."""


class PreconditionError(ValueError):
    """Input violates a documented precondition of the check."""


class InternalInconsistencyError(RuntimeError):
    """Two redundant computations of the same quantity disagree."""


class DomainError(ValueError):
    """Objective could not be evaluated anywhere in the searched bracket."""


class InvalidCountError(ValueError):
    """Success count outside [0, trials]."""


def checked_count(value, name: str, error=ValueError, least: int = 1) -> int:
    """value as a Python int, if it is an integer >= least (a Python or numpy
    integer: a float, even a whole one, is no count); else ``error``, naming
    the parameter. Arithmetic on the int cannot wrap as a numpy integer's can."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def checked_q(q) -> float:
    """The moment order q as a float, if it is finite and exceeds 2; else
    InvalidQError, naming q."""
    if not 2 < q < math.inf:
        raise InvalidQError(f"q must exceed 2 and be finite, got {q}")
    return float(q)
