"""Adaptive explicit Runge-Kutta integration with fixed-grid sampling.

The method is the Dormand-Prince 5(4) embedded pair (the classic DOPRI5
tableau, FSAL).  Output samples are produced by shortening steps so that
the integrator lands exactly on each requested sample time; no interpolant
is involved, so the sample grid never depends on the internal step sizes.
The step size is limited only by error control and by sample landing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteState, StepLimitExceeded

__all__ = ["IntegratorSettings", "RawTrajectory", "integrate"]


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_SETTINGS = IntegratorSettings()

# chaos runs want tighter local error; window statistics are asserted, not
# pointwise states
CHAOS_SETTINGS = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)


@dataclass(frozen=True)
class RawTrajectory:
    """Times and states sampled on the requested output grid."""

    times: np.ndarray   # shape (n,), strictly increasing
    states: np.ndarray  # shape (n, dim)


# Dormand-Prince 5(4) coefficients
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# 5th-order solution weights (row 7 of A by FSAL) and error weights b5 - b4
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920,
    -17253 / 339200, 22 / 525, -1 / 40,
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 1 / 5
_INITIAL_STEP = 1e-3
_MAX_STEPS = 10_000_000


def _sample_grid(t0: float, t1: float, sample_step: float) -> np.ndarray:
    n = int(np.floor((t1 - t0) / sample_step + 1e-9))
    grid = t0 + sample_step * np.arange(n + 1)
    if grid[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        grid = np.append(grid, t1)
    else:
        grid[-1] = t1
    return grid


def _where(t: float, h: float, y: np.ndarray) -> str:
    """Where a failed step started: its time, size and accepted state."""
    state = ", ".join(f"{v:.6g}" for v in y)
    return f"from t={t:.6g} with h={h:.6g}, y=[{state}]"


def integrate(
    field: Callable[[np.ndarray], np.ndarray],
    y0,
    t0: float,
    t1: float,
    settings: IntegratorSettings | None = None,
    sample_step: float = 0.1,
) -> RawTrajectory:
    """Integrate dy/dt = field(y) over [t0, t1], sampling every sample_step.

    The final time t1 is always included in the output grid.  Raises
    StepLimitExceeded when the step budget runs out and NonFiniteState when
    the solution leaves the finite domain; a DomainError raised by the field
    is raised again as a DomainError.  Each of them names the failed step's
    start time t, step size h and state y.  ValueError flags bad arguments,
    including a non-finite t0, t1 or sample_step.
    """
    settings = settings or DEFAULT_SETTINGS
    if not all(map(math.isfinite, (t0, t1, sample_step))):
        raise ValueError("t0, t1 and sample_step must be finite, got "
                         f"t0={t0}, t1={t1}, sample_step={sample_step}")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if not sample_step > 0:
        raise ValueError("sample_step must be positive")

    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1 or y.size < 1:
        raise ValueError("y0 must be a non-empty 1-D state vector")
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("initial state is not finite")

    grid = _sample_grid(t0, t1, sample_step)
    out = np.empty((len(grid), y.size))
    out[0] = y

    rtol, atol = settings.rel_tol, settings.abs_tol
    max_steps = _MAX_STEPS
    h = _INITIAL_STEP
    t = t0
    k = np.empty((7, y.size))
    k[6] = field(y)  # seeds FSAL
    # per stage: its row of k, the weights' bound dot and the rows they weigh
    stages = [(s, _A[s].dot, k[:s]) for s in range(1, 7)]
    steps = 0

    for i, t_target in enumerate(grid.tolist()[1:], 1):
        while t < t_target - 1e-14 * max(1.0, abs(t_target)):
            if steps >= max_steps:
                raise StepLimitExceeded(
                    f"max_steps={max_steps} reached ({_where(t, h, y)})")
            steps += 1
            h = min(h, t_target - t)

            k[0] = k[6]  # FSAL: last stage of the accepted step
            try:
                for s, a_dot, k_s in stages:
                    k[s] = field(y + h * a_dot(k_s))
            except DomainError as exc:
                raise DomainError(f"{exc} ({_where(t, h, y)})") from exc
            y_new = y + h * _B.dot(k)
            if not np.isfinite(y_new).all() or not np.isfinite(k).all():
                raise NonFiniteState(
                    f"non-finite state in the step ({_where(t, h, y)})")

            # max-norm error in Python floats, cheaper than numpy for 2-5 values
            err = max([abs(e) / (atol + rtol * abs(v)) for e, v in
                       zip((h * _E.dot(k)).tolist(), y_new.tolist())])

            if err <= 1.0:
                t = t + h
                y = y_new
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
                h = h * max(_MIN_FACTOR, factor)
            else:
                k[6] = k[0]  # keep the FSAL seed for the retry
                h = h * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)
        t = t_target
        out[i] = y

    return RawTrajectory(times=grid, states=out)
