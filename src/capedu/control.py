"""Consumption-controlled runs and the tipping-point search in p."""

from __future__ import annotations

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
    """Bisect on p for the target where output at the horizon returns to Y(0).

    The objective is dY(p) = Y(horizon; p) - Y(0); the bracket must straddle
    a sign change, otherwise NoSignChange is raised.  horizon, checked first,
    and tol must be finite and positive: a NaN tol would end the bisection.
    Then both ends must pass check_target, before the bracket is tested.
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = growth(mid)
        if g_mid == 0.0:
            lo = hi = mid
            g_lo = g_hi = g_mid
            break
        if np.sign(g_mid) == np.sign(g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return TippingResult(p_star=0.5 * (lo + hi), bracket=(lo, hi),
                         growth_at_bracket=(g_lo, g_hi), horizon_used=horizon)


def long_run_outcome(params: ModelParams, p: float) -> tuple[float, float]:
    """Asymptotic (Y, C) = (Y0, p*Y0) at the controlled equilibrium."""
    report = controlled_equilibrium(params, p)
    return report.Y0, p * report.Y0
