"""Chaotic driver simulation, running averages, and the modulated economy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import require_finite
from .integrator import CHAOS_SETTINGS, IntegratorSettings, RawTrajectory, integrate
from .model import EconState, ModelParams
from .trajectory import Trajectory, build_trajectory

__all__ = ["AverageSeries", "simulate_ne9", "running_average", "simulate_modulated"]

DEFAULT_SAMPLE_STEP = 0.01


@dataclass(frozen=True)
class AverageSeries:
    """Running time-average (1/t) * integral of x over [0, t], for t > 0."""

    times: np.ndarray
    values: np.ndarray


def simulate_ne9(b: float = model.NE9_B_DEFAULT,
                 x0: float = model.NE9_START_DEFAULT[0],
                 y0: float = model.NE9_START_DEFAULT[1],
                 z0: float = model.NE9_START_DEFAULT[2],
                 horizon: float = 100.0,
                 settings: IntegratorSettings | None = None,
                 sample_step: float = DEFAULT_SAMPLE_STEP) -> RawTrajectory:
    """Trajectory of the 3-D chaotic driver from (x0, y0, z0)."""
    for name, value in zip(("x0", "y0", "z0", "b"), (x0, y0, z0, b)):
        require_finite(name, value)
    return integrate(model.ne9_rhs(b), np.array([x0, y0, z0]),
                     0.0, horizon, settings or CHAOS_SETTINGS, sample_step)


def running_average(times, values) -> AverageSeries:
    """Trapezoid running average of a series sampled from t = 0.

    Returns one value per sample time t > 0; quadrature error is
    O(sample_step^2).
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if t.size < 2:
        raise ValueError("need at least two samples")
    if abs(t[0]) > 1e-12:
        raise ValueError("series must start at t = 0")
    increments = 0.5 * (x[1:] + x[:-1]) * np.diff(t)
    cumulative = np.cumsum(increments)
    return AverageSeries(times=t[1:].copy(), values=cumulative / t[1:])


def simulate_modulated(params: ModelParams, c: float, econ0: EconState,
                       chaos0=model.NE9_START_DEFAULT,
                       b: float = model.NE9_B_DEFAULT,
                       horizon: float = 100.0,
                       settings: IntegratorSettings | None = None,
                       sample_step: float = DEFAULT_SAMPLE_STEP) -> Trajectory:
    """Coupled 5-D run: economy with capital investment fraction s_k + c*x(t).

    The returned trajectory carries Y and C series and the minimum of the
    effective capital coefficient over the run.
    """
    for name, value in zip(("c", "x0", "y0", "z0", "b"), (c, *chaos0, b)):
        require_finite(name, value)  # as a ChaosSpec checks them
    y0 = np.array([econ0.K, econ0.E, *chaos0])
    raw = integrate(model.modulated_rhs(params, c, b), y0,
                    0.0, horizon, settings or CHAOS_SETTINGS, sample_step)
    return build_trajectory(params, raw, ("K", "E", "x", "y", "z"),
                            s_k=params.s_k + c * raw.states[:, 2])
