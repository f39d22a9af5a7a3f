"""Exception hierarchy shared by all capedu modules."""

import math


class CapEduError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the CLI's exit status for the error: 2 for bad input
    (ValidationError), 3 for a numeric or analytic failure.
    """

    exit_code = 3


class DomainError(CapEduError):
    """State left the model's domain (K or E non-positive)."""


class StepLimitExceeded(CapEduError):
    """The integrator hit its step budget before reaching the end time."""


class NonFiniteState(CapEduError):
    """NaN or infinity appeared during integration."""


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


def require_finite(field: str, value: float) -> None:
    """Raise ValidationError naming field unless value is finite."""
    if not math.isfinite(value):
        raise ValidationError(field, f"must be finite, got {value}")


def require_positive(field: str, value: float) -> None:
    """Raise ValidationError naming field unless value is finite and positive."""
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ValidationError(field,
                              f"must be finite and positive, got {value}")
