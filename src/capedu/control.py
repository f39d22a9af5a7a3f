"""Consumption-controlled runs and the tipping-point search in p."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .analysis import check_target, controlled_equilibrium
from .errors import NoSignChange, require_positive
from .integrator import IntegratorSettings, integrate
from .model import EconState, ModelParams, production
from .trajectory import Trajectory, build_trajectory

__all__ = ["TippingResult", "check_control", "simulate_controlled",
           "find_tipping", "long_run_outcome"]


@dataclass(frozen=True)
class TippingResult:
    p_star: float
    bracket: tuple[float, float]
    growth_at_bracket: tuple[float, float]  # Y(T) - Y(0) at the bracket ends
    horizon_used: float


def check_control(params: ModelParams, p: float, s_r0: float) -> None:
    """Raise ValidationError unless p and s_r0 are valid for a run."""
    check_target(params, p)
    require_positive("s_r0", s_r0)


def simulate_controlled(params: ModelParams, p: float, econ0: EconState,
                        s_r0: float, horizon: float,
                        settings: IntegratorSettings | None = None,
                        sample_step: float = 0.1) -> Trajectory:
    """Integrate (K, E, s_r) under the consumption-target control.

    s_r is deliberately not clamped during integration; the trajectory's
    constraint_violation flag reports any excursion outside
    [s_r_floor, 1 - s_k].
    """
    check_control(params, p, s_r0)
    y0 = np.array([econ0.K, econ0.E, s_r0])
    raw = integrate(model.control_rhs(params, p), y0,
                    0.0, horizon, settings, sample_step)
    return build_trajectory(params, raw, ("K", "E", "s_r"),
                            s_r=raw.states[:, 2])


def find_tipping(params: ModelParams, econ0: EconState, s_r0: float,
                 horizon: float, p_low: float, p_high: float,
                 tol: float = 1e-3,
                 settings: IntegratorSettings | None = None) -> TippingResult:
    """Find the target p where output at the horizon returns to Y(0).

    dY(p) = Y(horizon; p) - Y(0) must change sign over the bracket, else
    NoSignChange.  horizon, then tol (a NaN tol would end the search) must be
    finite and positive, then both ends must pass check_target.  The search
    is ITP (Oliveira & Takahashi 2021) with kappa1 = 0.2 / W for a bracket W
    wide, kappa2 = 2 and n0 = 0: at most bisection's 2 + ceil(log2(W / tol))
    runs, fewer on a smooth dY.  It stops once the bracket is at most tol
    wide or holds no double; p_star is the midpoint of the final bracket.
    """
    require_positive("horizon", horizon)
    require_positive("tol", tol)
    check_target(params, p_low)
    check_target(params, p_high)
    if not p_high > p_low:
        raise NoSignChange(f"empty bracket [{p_low}, {p_high}]")
    y_start = production(params, econ0)

    def growth(p: float) -> float:
        # only the endpoint matters; one output interval per evaluation
        traj = simulate_controlled(params, p, econ0, s_r0, horizon,
                                   settings, sample_step=horizon)
        return float(traj["Y"][-1]) - y_start

    g_low, g_high = growth(p_low), growth(p_high)
    if g_low == 0.0:
        return TippingResult(p_low, (p_low, p_high), (g_low, g_high), horizon)
    if g_high == 0.0:
        return TippingResult(p_high, (p_low, p_high), (g_low, g_high), horizon)
    if np.sign(g_low) == np.sign(g_high):
        raise NoSignChange(
            f"growth has the same sign at both ends: {g_low:.4g}, {g_high:.4g}")

    lo, hi, g_lo, g_hi = p_low, p_high, g_low, g_high
    n = math.ceil(math.log2(hi - lo) - math.log2(tol))  # W / tol may overflow
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent doubles: a tol below their spacing ends here
        x = lo + (hi - lo) * g_lo / (g_lo - g_hi)  # interpolate
        delta = 0.2 / (p_high - p_low) * (hi - lo) ** 2  # truncate
        x = mid if delta > abs(mid - x) else x + math.copysign(delta, mid - x)
        radius = math.ldexp(tol, n - 1) - 0.5 * (hi - lo)  # 2.0**n overflows
        x = min(max(x, mid - radius), mid + radius)  # project
        x = x if lo < x < hi else mid
        g_x, n = growth(x), n - 1
        if g_x == 0.0:
            lo = hi = x
            g_lo = g_hi = g_x
            break
        if np.sign(g_x) == np.sign(g_lo):
            lo, g_lo = x, g_x
        else:
            hi, g_hi = x, g_x
    return TippingResult(p_star=0.5 * (lo + hi), bracket=(lo, hi),
                         growth_at_bracket=(g_lo, g_hi), horizon_used=horizon)


def long_run_outcome(params: ModelParams, p: float) -> tuple[float, float]:
    """Asymptotic (Y, C) = (Y0, p*Y0) at the controlled equilibrium."""
    report = controlled_equilibrium(params, p)
    return report.Y0, p * report.Y0
