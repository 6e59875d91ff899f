"""Exception types shared across the package, the one check of a count
argument, of a moment order q and of any other real parameter, and the one
bound of exp's float range."""

import math
import numbers
import operator
import sys

_LOG_MAX = math.log(sys.float_info.max)  # e^x overflows above it, 709.7827...


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
    integer: a float, even a whole one, is no count, nor is a bool, though
    operator.index(True) is 1); else ``error``, naming the parameter.
    Arithmetic on the int cannot wrap as a numpy integer's can."""
    try:
        count = least - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def float_count(count: int, name: str) -> float:
    """A count that checked_count returned, as a float; ValueError, naming
    it, where it is 2^1024 or more."""
    try:
        return float(count)
    except OverflowError:
        raise ValueError(f"{name} must be below 2^1024, got an integer of "
                         f"{count.bit_length()} bits") from None


def _real_number(value, name: str):
    """TypeError, naming the parameter, unless value is a real number; a bool
    is none, though Python counts it as an int."""
    # float, int first: the ABC costs 0.4 us
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def checked_q(q) -> float:
    """The moment order q as a float, if it is finite and exceeds 2; else
    InvalidQError, naming q (TypeError if q is not a real number)."""
    _real_number(q, "q")
    if not 2 < q < math.inf:
        raise InvalidQError(f"q must exceed 2 and be finite, got {q}")
    return float(q)


def checked_real(value, name: str, *, above=None, least=None, below=None, most=None,
                 error=ValueError, lo_text=None):
    """value, if it is a real number inside the interval that the given ends
    bound (> above or >= least, < below or <= most), finite unless it equals
    most; else ``error`` whose message starts with the name: "must be finite",
    "must be finite and > lo" (or >= lo; lo_text words lo) or, where hi is
    finite or most is given, "must lie in (lo, hi]" with the interval's
    brackets. TypeError, naming it, if value is not a real number or is a bool."""
    _real_number(value, name)
    lo = least if least is not None else -math.inf if above is None else above
    hi = most if most is not None else math.inf if below is None else below
    if lo < value < hi or value == least or value == most:  # nan fails each test
        return value
    if hi < math.inf or most is not None:
        raise error(f"{name} must lie in {'(' if least is None else '['}{lo:g}, "
                    f"{hi:g}{')' if most is None else ']'}, got {value}")
    rel = "" if lo == -math.inf else f" and {'>' if least is None else '>='} {lo_text or f'{lo:g}'}"
    raise error(f"{name} must be finite{rel}, got {value}")
