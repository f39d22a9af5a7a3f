"""Consumption-controlled runs and the tipping-point search in p."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .analysis import check_target, tipping_root
from .errors import NoSignChange, StructurallyUnstable, require_positive
from .integrator import IntegratorSettings, integrate
from .model import EconState, ModelParams, output
from .trajectory import Trajectory, build_trajectory

__all__ = ["TippingResult", "check_control", "simulate_controlled",
           "find_tipping"]

PAIRS = 4  # pairs tol wide, around p_inf and then secant roots, per search


@dataclass(frozen=True)
class TippingResult:
    p_star: float
    bracket: tuple[float, float]
    growth_at_bracket: tuple[float, float]  # Y(T) - Y(0) at the bracket ends


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
    return build_trajectory(params, raw, model.CONTROLLED.states)


def find_tipping(params: ModelParams, econ0: EconState, s_r0: float,
                 horizon: float, p_low: float, p_high: float,
                 tol: float = 1e-3,
                 settings: IntegratorSettings | None = None) -> TippingResult:
    """Find the target p where output at the horizon returns to Y(0).

    dY(p) = Y(horizon; p) - Y(0) must change sign over the bracket, else
    NoSignChange.  horizon, then tol (a NaN tol would end the search) must be
    finite and positive, then both ends must pass check_target; the first
    run checks s_r0 (check_control).

    The search runs pairs x -+ tol/2 inside the bracket: first around
    p_inf, the closed-form root of an infinite horizon
    (analysis.tipping_root), then, while a pair's growths share a sign,
    around the secant root of those growths, up to PAIRS pairs in all; a
    NaN root or a pair outside the bracket ends them.  Then it runs the
    ends.  It keeps the first pair whose growths differ in sign or include
    a 0, and narrows it by ITP (Oliveira & Takahashi 2021; kappa1 = 0.2 / W,
    kappa2 = 2, n0 = 0) until it is at most tol wide or holds no double: 2
    runs when the first pair brackets the root, 2 more per secant pair, and
    after the pairs at most bisection's 2 + ceil(log2(W / tol)) for a
    bracket W wide, fewer on a smooth dY.  At tol 1e-3 criterion 6 takes 2
    runs at T = 50, 100 and 200, and 4 at T = 20.  p_star is the midpoint,
    or an end whose growth is exactly 0.
    """
    require_positive("horizon", horizon)
    require_positive("tol", tol)
    check_target(params, p_low)
    check_target(params, p_high)
    if not p_high > p_low:
        raise NoSignChange(f"empty bracket [{p_low}, {p_high}]")
    y_start = output(params, econ0.K, econ0.E)

    def growth(p: float) -> float:
        # only the endpoint matters; one output interval per evaluation
        traj = simulate_controlled(params, p, econ0, s_r0, horizon,
                                   settings, sample_step=horizon)
        return float(traj["Y"][-1]) - y_start

    def probes():
        # each candidate bracket with its growths: the pairs, then the ends
        try:
            x = tipping_root(params, y_start)
        except StructurallyUnstable:  # alpha + beta = 1 or s_k = 0: no pair
            x = math.nan
        for _ in range(PAIRS):
            lo = x - 0.5 * tol
            hi = lo + tol
            while hi - lo > tol:  # lo + tol may round to a pair wider than tol
                hi = math.nextafter(hi, lo)
            if not p_low < lo < hi < p_high:  # a NaN x ends here too
                break
            g_lo, g_hi = growth(lo), growth(hi)
            yield lo, hi, g_lo, g_hi
            # the next pair lies around the secant root of these growths
            x = lo + (hi - lo) * g_lo / (g_lo - g_hi) if g_lo != g_hi \
                else math.nan
        yield p_low, p_high, growth(p_low), growth(p_high)

    for lo, hi, g_lo, g_hi in probes():
        if g_lo == 0.0 or np.sign(g_lo) != np.sign(g_hi):
            break
    else:
        raise NoSignChange(
            f"growth has the same sign at both ends: {g_lo:.4g}, {g_hi:.4g}")

    width = hi - lo
    n = math.ceil(math.log2(width) - math.log2(tol))  # W / tol may overflow
    while hi - lo > tol and g_lo and g_hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent doubles: a tol below their spacing ends here
        x = lo + (hi - lo) * g_lo / (g_lo - g_hi)  # interpolate
        delta = 0.2 / width * (hi - lo) ** 2  # truncate
        x = mid if delta > abs(mid - x) else x + math.copysign(delta, mid - x)
        radius = math.ldexp(tol, n - 1) - 0.5 * (hi - lo)  # 2.0**n overflows
        x = min(max(x, mid - radius), mid + radius)  # project
        x = x if lo < x < hi else mid
        g_x = growth(x)
        if g_x == 0.0:
            lo = hi = x
            g_lo = g_hi = g_x
        elif np.sign(g_x) == np.sign(g_lo):
            lo, g_lo = x, g_x
        else:
            hi, g_hi = x, g_x
        n -= 1
    p_star = lo if g_lo == 0.0 else hi if g_hi == 0.0 else 0.5 * (lo + hi)
    return TippingResult(p_star, (lo, hi), (g_lo, g_hi))
