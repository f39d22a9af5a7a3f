"""Exception hierarchy shared by all capedu modules."""


class CapEduError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the CLI's exit status for the error: 2 for bad input,
    3 for a numeric or analytic failure.
    """

    exit_code = 3


class DomainError(CapEduError):
    """State left the model's domain (K or E non-positive)."""


class StepLimitExceeded(CapEduError):
    """The integrator hit its step budget before reaching the end time."""


class NonFiniteState(CapEduError):
    """NaN or infinity appeared during integration."""


class StructurallyUnstable(CapEduError):
    """alpha + beta = 1: the positive equilibrium does not exist."""


class InvalidTarget(CapEduError):
    """Consumption target leaves no room for education investment."""

    exit_code = 2


class NoSignChange(CapEduError):
    """Bisection bracket does not straddle a sign change."""


class ParseError(CapEduError):
    """Scenario document is malformed or misses a required field."""

    exit_code = 2


class ValidationError(CapEduError):
    """A parameter violates its allowed range; names the field."""

    exit_code = 2

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class EmptySeries(CapEduError):
    """Nothing to plot."""
