"""Exception types shared across the package, and the checks of scalar
input that raise them at its boundary."""

import math
import numbers

import numpy as np


class TvsslError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TvsslError, ValueError):
    """Array lengths or shapes do not agree."""


class InvalidParameterError(TvsslError, ValueError):
    """A parameter is outside its documented range."""


class NonFiniteInputError(TvsslError, ValueError):
    """Input points contain NaN or infinite coordinates."""


class DegenerateScaleError(TvsslError, ValueError):
    """A length scale collapsed to zero (e.g. duplicate points)."""


class DegenerateInputError(TvsslError, ValueError):
    """Input has no usable signal (e.g. zero vector where a direction is needed)."""


class FactorizationError(TvsslError, RuntimeError):
    """A matrix factorization failed or its solution missed the residual bound."""


class DivergenceError(TvsslError, RuntimeError):
    """An iterative solver blew up past its safety bound."""


class CsvParseError(TvsslError, ValueError):
    """A CSV file could not be parsed; the message carries the line number."""


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Reject a count that is not an integer (bools included) or is below
    ``minimum`` (if given)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name: str, value, minimum: float | None = None, *, strict: bool = False) -> None:
    """Reject a value that is not a finite real number (bools included) or is
    below ``minimum`` (at or below it with ``strict``), if given. NaN fails
    the first test, so it cannot pass a range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = ">" if strict else ">="
        raise InvalidParameterError(f"{name} must be {bound} {minimum}, got {value!r}")


def whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as a flat int64 array. Whole-valued floats pass; fractional,
    non-finite, boolean and non-numeric entries raise
    :class:`InvalidParameterError` naming ``what`` instead of being
    truncated."""
    arr = np.asarray(values).ravel()
    whole = arr.dtype.kind in "iu" or arr.size == 0 or (
        arr.dtype.kind == "f" and np.all(np.isfinite(arr)) and np.all(arr == np.floor(arr))
    )
    if not whole:
        raise InvalidParameterError(f"{what} must be whole numbers")
    return arr.astype(np.int64)


def pm1_labels(values, what: str = "y") -> np.ndarray:
    """``values`` as a flat float64 array; any entry but +1 or -1 (NaN
    included) raises :class:`InvalidParameterError` naming ``what``."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.abs(arr) == 1.0):
        raise InvalidParameterError(f"{what} entries must be +1 or -1")
    return arr
