"""Consumption-controlled runs and the tipping-point search in p."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .analysis import check_target, controlled_equilibrium, tipping_root
from .errors import (NoSignChange, StructurallyUnstable, ValidationError,
                     require_positive)
from .integrator import DEFAULT_SETTINGS, IntegratorSettings, integrate
from .model import EconState, ModelParams, output
from .trajectory import Trajectory, build_trajectory

__all__ = ["TippingResult", "check_control", "simulate_controlled",
           "tipping_seed", "find_tipping", "long_run_outcome"]

# How far a start's log-distance from a stable equilibrium may grow before it
# decays as e^(lambda1 t): tests/test_oracles.py bounds end states with the
# same factor, on draws where nearly equal eigenvalues made it about 12.
TRANSIENT = 1e3


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


def tipping_seed(params: ModelParams, econ0: EconState, s_r0: float,
                 horizon: float, settings: IntegratorSettings | None = None
                 ) -> tuple[float, float]:
    """The closed-form tipping root p_inf (analysis.tipping_root) and a bound
    on the distance from it to the root at the horizon; (nan, inf) without a
    controlled equilibrium at p_inf, and inf where it is not stable.

    At p_inf, Y0 = Y(0).  A run there ends with its largest log-distance
    from that equilibrium at most TRANSIENT (1 + |lambda1| T) e^(lambda1 T)
    times the start's, plus ten times the integrator's tolerance, where
    lambda1 < 0 is the slowest rate, -Y0 included.  ln Y = alpha ln E +
    beta ln K is off by at most alpha + beta times that, and
    dp / d ln Y0 = (1 - alpha - beta) s_r* / alpha turns it into a p.
    s_r0 must be finite and positive.
    """
    require_positive("s_r0", s_r0)
    try:
        p_inf = tipping_root(params, output(params, econ0.K, econ0.E))
        report = controlled_equilibrium(params, p_inf)
    except (StructurallyUnstable, ValidationError):
        return math.nan, math.inf
    rate = max(report.eigenvalues)
    if not rate < 0:
        return p_inf, math.inf
    s_r_star = 1.0 - params.s_k - p_inf
    settings = settings or DEFAULT_SETTINGS
    start = max(abs(math.log(econ0.K) - math.log(report.K0)),
                abs(math.log(econ0.E) - math.log(report.E0)),
                abs(math.log(s_r0) - math.log(s_r_star)))
    end = (TRANSIENT * (1.0 - rate * horizon) * math.exp(rate * horizon)
           * start + 10.0 * (settings.rel_tol + settings.abs_tol
                             / min(report.K0, report.E0, s_r_star)))
    a, b = params.alpha, params.beta
    return p_inf, (a + b) * end * (1.0 - a - b) * s_r_star / a


def find_tipping(params: ModelParams, econ0: EconState, s_r0: float,
                 horizon: float, p_low: float, p_high: float,
                 tol: float = 1e-3,
                 settings: IntegratorSettings | None = None) -> TippingResult:
    """Find the target p where output at the horizon returns to Y(0).

    dY(p) = Y(horizon; p) - Y(0) must change sign over the bracket, else
    NoSignChange.  horizon, then tol (a NaN tol would end the search) must be
    finite and positive, then both ends must pass check_target, then s_r0
    must be finite and positive.

    When the pair p_inf -+ tol/2 around the closed-form root of an infinite
    horizon (tipping_seed, computed only for a bracket wider than tol,
    where the pair can fit) lies inside the bracket and the bound on the
    root's distance from p_inf is below tol/2, the search runs that pair
    first, and a pair whose growths differ in sign is the result: 2 runs.
    Otherwise it runs the two ends and searches by ITP (Oliveira & Takahashi
    2021) with kappa1 = 0.2 / W, kappa2 = 2 and n0 = 0: at most bisection's
    2 + ceil(log2(W / tol)) runs for a bracket W wide, fewer on a smooth dY,
    and the pair's 2 more after a missed pair, which the bound rules out.
    The search stops once the bracket is at most tol wide or holds no
    double; p_star is its midpoint, or an end whose growth is exactly 0.
    """
    require_positive("horizon", horizon)
    require_positive("tol", tol)
    check_target(params, p_low)
    check_target(params, p_high)
    if not p_high > p_low:
        raise NoSignChange(f"empty bracket [{p_low}, {p_high}]")
    require_positive("s_r0", s_r0)
    y_start = output(params, econ0.K, econ0.E)

    def growth(p: float) -> float:
        # only the endpoint matters; one output interval per evaluation
        traj = simulate_controlled(params, p, econ0, s_r0, horizon,
                                   settings, sample_step=horizon)
        return float(traj["Y"][-1]) - y_start

    def result(lo: float, hi: float, g_lo: float, g_hi: float
               ) -> TippingResult:
        p_star = lo if g_lo == 0.0 else hi if g_hi == 0.0 else 0.5 * (lo + hi)
        return TippingResult(p_star, (lo, hi), (g_lo, g_hi), horizon)

    if p_high - p_low > tol:  # only a wider bracket can hold the pair
        p_inf, gap = tipping_seed(params, econ0, s_r0, horizon, settings)
        x1 = p_inf - 0.5 * tol
        x2 = x1 + tol
        while x2 - x1 > tol:  # x1 + tol may round to a pair wider than tol
            x2 = math.nextafter(x2, x1)
        if gap < 0.5 * tol and p_low < x1 < x2 < p_high:
            g1, g2 = growth(x1), growth(x2)
            if g1 == 0.0 or g2 == 0.0 or np.sign(g1) != np.sign(g2):
                return result(x1, x2, g1, g2)

    lo, hi = p_low, p_high
    g_lo, g_hi = growth(lo), growth(hi)
    if g_lo == 0.0 or g_hi == 0.0:
        return result(lo, hi, g_lo, g_hi)
    if np.sign(g_lo) == np.sign(g_hi):
        raise NoSignChange(
            f"growth has the same sign at both ends: {g_lo:.4g}, {g_hi:.4g}")

    width = hi - lo
    n = math.ceil(math.log2(width) - math.log2(tol))  # W / tol may overflow
    while hi - lo > tol:
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
            return result(x, x, g_x, g_x)
        if np.sign(g_x) == np.sign(g_lo):
            lo, g_lo = x, g_x
        else:
            hi, g_hi = x, g_x
        n -= 1
    return result(lo, hi, g_lo, g_hi)


def long_run_outcome(params: ModelParams, p: float) -> tuple[float, float]:
    """Asymptotic (Y, C) = (Y0, p*Y0) at the controlled equilibrium."""
    report = controlled_equilibrium(params, p)
    return report.Y0, p * report.Y0
