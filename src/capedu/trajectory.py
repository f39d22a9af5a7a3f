"""Sampled trajectories with derived economic series attached."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .integrator import IntegratorStats, RawTrajectory
from .model import ModelParams, output

__all__ = ["Trajectory", "build_trajectory", "sample_index"]


def sample_index(times: np.ndarray, t: float) -> int | None:
    """Index of the sample at time t, or None when t is not a sample time.

    A time within 1e-9 of the first sample interval of a sample counts as
    that sample, so a time written in decimal finds its grid point.  A
    series of one sample has no interval: only its own time matches.
    """
    if len(times) < 2:
        return 0 if len(times) and times[0] == t else None
    i = int(np.argmin(np.abs(times - t)))
    return i if abs(times[i] - t) <= 1e-9 * (times[1] - times[0]) else None


@dataclass(frozen=True)
class Trajectory:
    columns: tuple[str, ...]        # the state columns, then Y, C, I_k, I_r
    times: np.ndarray
    data: dict[str, np.ndarray] = field(repr=False)
    constraint_violation: bool = False
    min_effective_sk: float | None = None
    stats: IntegratorStats | None = None  # the run's, as in RawTrajectory

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def at(self, t: float) -> dict[str, float]:
        """The row at sample time t as a column -> value mapping.

        Raises ValidationError("t", ...) when t is not a sample time.
        """
        i = sample_index(self.times, t)
        if i is None:
            raise ValidationError("t", f"{t!r} is not a sample time")
        return {name: float(self.data[name][i]) for name in self.columns}


def build_trajectory(params: ModelParams, raw: RawTrajectory,
                     state_columns: tuple[str, ...],
                     s_k: np.ndarray | None = None) -> Trajectory:
    """Attach Y, C, I_k, I_r to a raw trajectory with the named state columns.

    Pass s_k as the per-sample series of a capital fraction the run varies;
    a state column named s_r is the series of a varied education fraction.
    Each flag comes only from a varied series: constraint_violation from
    s_r leaving [s_r_floor, 1 - s_k], min_effective_sk from s_k.
    """
    data = {name: raw.states[:, j].copy() for j, name in enumerate(state_columns)}
    # per sample on floats: the march's libm pow, where numpy's SIMD power
    # differs in the last bit by host
    Y = np.array([output(params, k, e) for k, e in
                  zip(data["K"].tolist(), data["E"].tolist())], dtype=float)
    # a varied fraction enters its flow and C, so C + I_k + I_r = Y per row
    sk = params.s_k if s_k is None else s_k
    sr = data.get("s_r", params.s_r)
    data.update(Y=Y, C=(1.0 - sk - sr) * Y, I_k=sk * Y, I_r=sr * Y)
    violated = "s_r" in data and bool(
        np.any(sr < params.s_r_floor) or np.any(sr > 1.0 - params.s_k))
    min_eff = None if s_k is None else float(np.min(s_k))
    return Trajectory(columns=tuple(data), times=raw.times.copy(), data=data,
                      constraint_violation=violated, min_effective_sk=min_eff,
                      stats=raw.stats)
