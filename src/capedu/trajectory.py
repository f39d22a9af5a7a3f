"""Sampled trajectories with derived economic series attached."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import RawTrajectory
from .model import ModelParams

__all__ = ["Trajectory", "STATE_COLUMNS", "build_trajectory"]

# state columns per scenario kind; derived columns Y, C, I_k, I_r follow
STATE_COLUMNS = {
    "basic": ("K", "E"),
    "controlled": ("K", "E", "s_r"),
    "chaotic": ("K", "E", "x", "y", "z"),
}


@dataclass(frozen=True)
class Trajectory:
    kind: str
    times: np.ndarray
    data: dict[str, np.ndarray] = field(repr=False)
    constraint_violation: bool = False
    min_effective_sk: float | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        return STATE_COLUMNS[self.kind] + ("Y", "C", "I_k", "I_r")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def at(self, t: float) -> dict[str, float]:
        """Row nearest to time t as a column -> value mapping."""
        i = int(np.argmin(np.abs(self.times - t)))
        return {name: float(self.data[name][i]) for name in self.columns}


def build_trajectory(kind: str, params: ModelParams, raw: RawTrajectory,
                     c: float | None = None) -> Trajectory:
    """Attach Y, C, I_k, I_r and the per-kind flags to a raw trajectory."""
    cols = STATE_COLUMNS[kind]
    data = {name: raw.states[:, j].copy() for j, name in enumerate(cols)}
    K, E = data["K"], data["E"]
    Y = E ** params.alpha * K ** params.beta
    s_r = data["s_r"] if kind == "controlled" else params.s_r
    # modulation acts on the capital investment flow, so the effective s_k
    # enters I_k and C; conservation C + I_k + I_r = Y then holds exactly
    s_k = params.s_k + c * data["x"] if kind == "chaotic" else params.s_k
    data["Y"] = Y
    data["C"] = (1.0 - s_k - s_r) * Y
    data["I_k"] = s_k * Y
    data["I_r"] = s_r * Y

    violated = False
    min_eff = None
    if kind == "controlled":
        lo, hi = params.s_r_floor, 1.0 - params.s_k
        violated = bool(np.any(data["s_r"] < lo) or np.any(data["s_r"] > hi))
    elif kind == "chaotic":
        min_eff = float(np.min(s_k))

    return Trajectory(kind=kind, times=raw.times.copy(), data=data,
                      constraint_violation=violated, min_effective_sk=min_eff)
