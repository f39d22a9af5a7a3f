"""Parameter set and right-hand sides of the growth model systems.

Three systems share the same economic core (Cobb-Douglas output
Y = E^alpha * K^beta feeding proportional investments):

* basic        -- 2-D (K, E)
* chaotic      -- 5-D (K, E, x, y, z): the capital investment fraction is
                  modulated by a chaotic driver, s_k + c*x(t)
* controlled   -- 3-D (K, E, s_r): education investment adjusts so that
                  consumption tracks a target fraction p of output
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, require_positive

__all__ = [
    "ModelParams", "EconState", "production", "consumption",
    "basic_rhs", "ne9_rhs", "modulated_rhs", "control_rhs",
    "NE9_B_DEFAULT", "NE9_START_DEFAULT",
]

NE9_B_DEFAULT = 0.55
NE9_START_DEFAULT = (0.5, 0.0, 0.0)


@dataclass(frozen=True)
class ModelParams:
    """The six structural constants plus the minimal education investment.

    s_k, s_r    fractions of output invested in capital / education
    delta_k     capital decay rate (wear and tear)
    delta_r     expertise decay rate (obsolescence, forgetting)
    alpha, beta output elasticities of education and capital
    s_r_floor   minimal education investment fraction, only used for
                constraint-violation flags (never enforced)
    """

    s_k: float
    s_r: float
    delta_k: float
    delta_r: float
    alpha: float
    beta: float
    s_r_floor: float = 0.0

    def __post_init__(self):
        if not 0 <= self.s_k <= 1:
            raise ValidationError("s_k", "must lie in [0, 1]")
        if not self.s_r > 0:
            raise ValidationError("s_r", "must be positive")
        if not self.s_r <= 1:
            raise ValidationError("s_r", "must be at most 1")
        if self.s_r < self.s_r_floor:
            raise ValidationError("s_r", "below s_r_floor")
        if self.s_k + self.s_r > 1:
            raise ValidationError("s_k", "s_k + s_r must not exceed 1")
        require_positive("delta_k", self.delta_k)
        require_positive("delta_r", self.delta_r)
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha", "must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValidationError("beta", "must lie in (0, 1)")


@dataclass(frozen=True)
class EconState:
    K: float  # capital stock
    E: float  # education / expertise stock

    def __post_init__(self):
        require_positive("K", self.K)
        require_positive("E", self.E)


_INF = float("inf")


def _require_positive(K, E):
    # fractional powers are undefined at non-positive bases; the economy
    # model is meaningless there.  Scalars only: this runs on every RHS
    # call, and NaN fails every comparison, so the fast test misses no case.
    if 0.0 < K < _INF and 0.0 < E < _INF:
        return
    if not (math.isfinite(K) and math.isfinite(E)):
        raise DomainError(f"non-finite state K={K}, E={E}")
    raise DomainError(f"K and E must stay positive, got K={K}, E={E}")


def production(params: ModelParams, state: EconState) -> float:
    """Output level Y = E^alpha * K^beta."""
    return state.E ** params.alpha * state.K ** params.beta


def consumption(params: ModelParams, s_r_current: float, Y: float) -> float:
    """Consumption C = (1 - s_k - s_r)*Y, the non-invested remainder."""
    return (1.0 - params.s_k - s_r_current) * Y


# Vector fields as closures for the integrator: each takes a flat numpy state,
# unpacks it as Python floats and returns a list of floats, which is cheaper
# than numpy scalars and arrays and gives the same bits.

def basic_rhs(params: ModelParams):
    """d/dt (K, E) for the basic 2-D system."""
    s_k, s_r = params.s_k, params.s_r
    d_k, d_r, a, b = params.delta_k, params.delta_r, params.alpha, params.beta

    def rhs(v: np.ndarray) -> list[float]:
        K, E = v.tolist()
        _require_positive(K, E)
        Y = E ** a * K ** b
        return [s_k * Y - d_k * K, s_r * Y - d_r * E]

    return rhs


def ne9_rhs(b: float = NE9_B_DEFAULT):
    """d/dt (x, y, z) of the chaotic driver."""
    def rhs(v: np.ndarray) -> list[float]:
        x, y, z = v.tolist()
        return [y, -x - y * z, -x * z + 7.0 * x * x - b]

    return rhs


def modulated_rhs(params: ModelParams, c: float, b: float = NE9_B_DEFAULT):
    """d/dt (K, E, x, y, z): capital investment coefficient s_k + c*x."""
    s_k, s_r = params.s_k, params.s_r
    d_k, d_r, al, be = params.delta_k, params.delta_r, params.alpha, params.beta

    def rhs(v: np.ndarray) -> list[float]:
        K, E, x, y, z = v.tolist()
        _require_positive(K, E)
        Y = E ** al * K ** be
        return [
            (s_k + c * x) * Y - d_k * K,
            s_r * Y - d_r * E,
            y, -x - y * z, -x * z + 7.0 * x * x - b,
        ]

    return rhs


def control_rhs(params: ModelParams, p: float):
    """d/dt (K, E, s_r): s_r drifts at the rate consumption exceeds p*Y."""
    s_k = params.s_k
    d_k, d_r, a, b = params.delta_k, params.delta_r, params.alpha, params.beta

    def rhs(v: np.ndarray) -> list[float]:
        K, E, s_r = v.tolist()
        _require_positive(K, E)
        Y = E ** a * K ** b
        return [
            s_k * Y - d_k * K,
            s_r * Y - d_r * E,
            (1.0 - s_k - s_r - p) * Y,
        ]

    return rhs
