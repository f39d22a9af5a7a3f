"""Chaotic driver simulation, running averages, and the modulated economy."""

from __future__ import annotations

import numpy as np

from . import model
from .errors import ValidationError, require_finite, require_series
from .integrator import CHAOS_SETTINGS, IntegratorSettings, RawTrajectory, integrate
from .model import EconState, ModelParams
from .trajectory import Trajectory, build_trajectory

__all__ = ["simulate_ne9", "running_average", "simulate_modulated"]

DEFAULT_SAMPLE_STEP = 0.01


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


def running_average(times, values) -> np.ndarray:
    """Trapezoid running average of a series sampled from t = 0.

    Returns an ndarray of (1/t) * integral of x over [0, t] at each sample
    time t > 0, times[1:]; quadrature error is O(sample_step^2).  A
    ValidationError names times unless they are a 1-D series of at least two
    samples that starts at t = 0 and increases strictly, and values unless
    they have the shape of times.
    """
    t = require_series("times", times)
    x = require_series("values", values)
    if t.size < 2:
        raise ValidationError("times", "need a 1-D series of at least two "
                              "samples")
    if abs(t[0]) > 1e-12:
        raise ValidationError("times", f"must start at t = 0, got {t[0]!r}")
    dt = np.diff(t)
    if not np.all(dt > 0):
        raise ValidationError("times", "must increase strictly")
    if x.shape != t.shape:
        raise ValidationError("values", f"has shape {x.shape}, not {t.shape}")
    return np.cumsum(0.5 * (x[1:] + x[:-1]) * dt) / t[1:]


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
    chaos0 = require_series("chaos0", chaos0, 3).tolist()
    for name, value in zip(("c", "x0", "y0", "z0", "b"), (c, *chaos0, b)):
        require_finite(name, value)  # as a ChaosSpec checks them
    y0 = np.array([econ0.K, econ0.E, *chaos0])
    raw = integrate(model.modulated_rhs(params, c, b), y0,
                    0.0, horizon, settings or CHAOS_SETTINGS, sample_step)
    return build_trajectory(params, raw, model.MODULATED.states,
                            s_k=params.s_k + c * raw.states[:, 2])
