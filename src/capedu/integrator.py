"""Adaptive explicit Runge-Kutta integration with fixed-grid sampling.

The method is the Dormand-Prince 5(4) embedded pair (the classic DOPRI5
tableau, FSAL).  Output samples are produced by shortening steps so that
the integrator lands exactly on each requested sample time; no interpolant
is involved, so the sample grid never depends on the internal step sizes.
The step size is limited only by error control and by sample landing.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (DomainError, NonFiniteState, StepLimitExceeded,
                     require_positive)

__all__ = ["IntegratorSettings", "RawTrajectory", "integrate"]


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        require_positive("rel_tol", self.rel_tol)
        require_positive("abs_tol", self.abs_tol)


DEFAULT_SETTINGS = IntegratorSettings()

# chaos runs want tighter local error; window statistics are asserted, not
# pointwise states
CHAOS_SETTINGS = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)


@dataclass(frozen=True)
class RawTrajectory:
    """Times and states sampled on the requested output grid."""

    times: np.ndarray   # shape (n,), strictly increasing
    states: np.ndarray  # shape (n, dim)


# Dormand-Prince 5(4) tableau, as the Python floats the step sums run on
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th-order solution weights (row 7 of A by FSAL) and error weights b5 - b4
_B = _A[6] + (0.0,)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)

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


def _where(t: float, h: float, y: Sequence[float]) -> str:
    """Where a failed step started: its time, size and accepted state."""
    state = ", ".join(f"{v:.6g}" for v in y)
    return f"from t={t:.6g} with h={h:.6g}, y=[{state}]"


def integrate(
    field: Callable[[np.ndarray], Sequence[float]],
    y0,
    t0: float,
    t1: float,
    settings: IntegratorSettings | None = None,
    sample_step: float = 0.1,
) -> RawTrajectory:
    """Integrate dy/dt = field(y) over [t0, t1], sampling every sample_step.

    field takes the state as a 1-D float ndarray and returns a sequence of
    as many numbers: a list, a tuple or an ndarray.  The stages are summed
    in Python floats in tableau order, so a rerun gives the same bits on
    any BLAS build.

    The final time t1 is always included in the output grid.  Raises
    StepLimitExceeded when the step budget runs out and NonFiniteState when
    the solution leaves the finite domain; a DomainError raised by the field
    is raised again as a DomainError.  Each of them names the failed step's
    start time t, step size h and state y.  ValueError flags bad arguments:
    a non-finite t0, a bad y0, a field that returns the wrong number of
    values, and (as a ValidationError that names it) a run length t1 - t0,
    named horizon, or a sample_step that is not finite and positive.
    """
    settings = settings or DEFAULT_SETTINGS
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    require_positive("horizon", t1 - t0)
    require_positive("sample_step", sample_step)

    start = np.array(y0, dtype=float)
    if start.ndim != 1 or start.size < 1:
        raise ValueError("y0 must be a non-empty 1-D state vector")
    if not np.all(np.isfinite(start)):
        raise NonFiniteState("initial state is not finite")

    grid = _sample_grid(t0, t1, sample_step)
    out = np.empty((len(grid), start.size))
    out[0] = start

    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = _A[1:]
    # b2 = e2 = 0: k2 enters the step only through the later stages
    e1, _, e3, e4, e5, e6, e7 = _E
    array, finite = np.array, math.isfinite
    rtol, atol = settings.rel_tol, settings.abs_tol
    max_steps = _MAX_STEPS
    h = _INITIAL_STEP
    t = t0
    y = start.tolist()
    k7 = field(start)  # seeds FSAL
    if len(k7) != len(y):
        raise ValueError(f"field returned {len(k7)} values for a state of "
                         f"{len(y)}")
    steps = 0

    for i, t_target in enumerate(grid.tolist()[1:], 1):
        while t < t_target - 1e-14 * max(1.0, abs(t_target)):
            if steps >= max_steps:
                raise StepLimitExceeded(
                    f"max_steps={max_steps} reached ({_where(t, h, y)})")
            steps += 1
            h = min(h, t_target - t)

            k1 = k7  # FSAL: last stage of the accepted step
            try:
                k2 = field(array([v + h * (a21 * p1)
                                  for v, p1 in zip(y, k1)]))
                k3 = field(array([v + h * (a31 * p1 + a32 * p2)
                                  for v, p1, p2 in zip(y, k1, k2)]))
                k4 = field(array([v + h * (a41 * p1 + a42 * p2 + a43 * p3)
                                  for v, p1, p2, p3 in zip(y, k1, k2, k3)]))
                k5 = field(array([
                    v + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                    for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]))
                k6 = field(array([
                    v + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4
                             + a65 * p5)
                    for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)]))
                # the 5th-order solution is also the FSAL stage's point
                y_new = [v + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5
                                  + b6 * p6)
                         for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5,
                                                          k6)]
                k7 = field(array(y_new))
            except DomainError as exc:
                raise DomainError(f"{exc} ({_where(t, h, y)})") from exc
            # before err: max() would pass over a NaN
            if not all(map(finite, chain(y_new, k1, k2, k3, k4, k5, k6, k7))):
                raise NonFiniteState(
                    f"non-finite state in the step ({_where(t, h, y)})")

            err = max([
                abs(h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6
                         + e7 * p7)) / (atol + rtol * abs(v))
                for v, p1, p3, p4, p5, p6, p7 in zip(y_new, k1, k3, k4, k5,
                                                     k6, k7)])

            if err <= 1.0:
                t = t + h
                y = y_new
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
                h = h * max(_MIN_FACTOR, factor)
            else:
                k7 = k1  # keep the FSAL seed for the retry
                h = h * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)
        t = t_target
        out[i] = y

    return RawTrajectory(times=grid, states=out)
