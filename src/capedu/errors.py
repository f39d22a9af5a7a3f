"""Errors of all capedu modules, and the one rule for numbers and series."""

import math
import numbers
import reprlib

import numpy as np


class CapEduError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the CLI's exit status for the error: 2 for bad input
    (ValidationError), 3 for a numeric or analytic failure.
    """

    exit_code = 3


class DomainError(CapEduError):
    """State off the domain: a stock not positive, or a value not finite."""


class StepLimitExceeded(CapEduError):
    """The march cannot finish: its step budget ran out, or its step size
    fell below the floor or no longer moves t."""


class StructurallyUnstable(CapEduError):
    """No positive equilibrium: alpha + beta = 1, s_k = 0 or out of range."""


class NoSignChange(CapEduError):
    """Bisection bracket does not straddle a sign change."""


class ValidationError(CapEduError, ValueError):
    """Bad input; names its field: a key path (params.alpha), a block, or
    scenario, csv or a series label for a whole input.  It is also a
    ValueError, the type of Python's own bad-argument errors."""

    exit_code = 2

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def require_real(field: str, value) -> float:
    """value as a float (an int too large for a double as +-inf); else, and
    for a bool, a ValidationError naming field."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(field, f"must be a number, got "
                              f"{reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a double
        return math.inf if value > 0 else -math.inf


def require_finite(field: str, value) -> float:
    """value as a float; ValidationError naming field unless finite."""
    if not math.isfinite(value := require_real(field, value)):
        raise ValidationError(field, f"must be finite, got {value}")
    return value


def require_positive(field: str, value) -> float:
    """value as a float; ValidationError naming field unless finite and > 0."""
    if not 0 < (value := require_real(field, value)) < math.inf:  # NaN fails
        raise ValidationError(field,
                              f"must be finite and positive, got {value}")
    return value


def require_series(field: str, values, n: int | None = None) -> np.ndarray:
    """values as a non-empty 1-D float ndarray, of n values if n is given;
    else a ValidationError naming field.  numpy's dtype decides, with no
    loop per value: text, bools, None, complex, nested or ragged lists fail."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):  # a ragged sequence
        array = np.array(None)
    if array.dtype.kind in "iuf" and array.ndim == 1 and array.size and \
            n in (None, array.size):
        return array.astype(float, copy=False)
    raise ValidationError(field, f"must be a 1-D series of real numbers of "
                          f"length {n or '>= 1'}, got {reprlib.repr(values)}")
