"""Scenario documents, sweeps, CSV serialization, and minimal SVG plots.

A scenario is a single JSON object describing one simulation run; every
figure-style experiment ships as a checked-in scenario file so results are
reproducible byte for byte.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import chaos as chaos_mod
from . import control as control_mod
from . import model
from .analysis import equilibrium
from .errors import (CapEduError, EmptySeries, ParseError, ValidationError,
                     require_positive)
from .integrator import (CHAOS_SETTINGS, IntegratorSettings, RawTrajectory,
                         _sample_grid, integrate)
from .model import EconState, ModelParams
from .trajectory import Trajectory, build_trajectory, sample_index

__all__ = [
    "Scenario", "ControlSpec", "ChaosSpec", "SweepSpec", "SweepRow",
    "load_scenario", "dump_scenario", "run_scenario", "run_sweep",
    "write_trajectory_csv", "read_trajectory_csv", "write_sweep_csv",
    "render_svg", "PhasePortrait", "phase_portrait", "write_phase_csv",
]

SWEEPABLE = ("s_k", "s_r", "delta_k", "delta_r", "alpha", "beta", "p", "c")


@dataclass(frozen=True)
class ControlSpec:
    p: float
    s_r0: float


@dataclass(frozen=True)
class ChaosSpec:
    c: float
    x0: float = model.NE9_START_DEFAULT[0]
    y0: float = model.NE9_START_DEFAULT[1]
    z0: float = model.NE9_START_DEFAULT[2]
    b: float = model.NE9_B_DEFAULT


# the blocks each kind of scenario has beside the shared ones, and the class
# each block parses into; a block's keys are the fields of its class
BLOCKS = {"basic": {}, "controlled": {"control": ControlSpec},
          "chaotic": {"chaos": ChaosSpec}}
_SHARED_BLOCKS = {"params": ModelParams, "initial": EconState,
                  "integrator": IntegratorSettings}
_KIND_BLOCKS = tuple(name for blocks in BLOCKS.values() for name in blocks)


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: ModelParams
    initial: EconState
    horizon: float
    sample_step: float
    control: ControlSpec | None = None
    chaos: ChaosSpec | None = None
    integrator: IntegratorSettings = IntegratorSettings()

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.params.alpha + self.params.beta >= 1:
            # simulation is legal; only equilibrium analysis will refuse
            return ("alpha + beta >= 1: no stable positive equilibrium",)
        return ()


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(f"{where} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal too large for a double
        value = math.inf
    if not math.isfinite(value):
        # json accepts the non-standard Infinity and NaN literals
        raise ParseError(f"{where} must be a finite number, got {obj!r}")
    return value


def _block(doc: dict, name: str, cls):
    """Build cls, which checks its own ranges, from the object doc[name]."""
    raw = doc[name]
    if not isinstance(raw, dict):
        raise ParseError(f"{name} must be an object")
    keys = fields(cls)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ParseError(f"unknown key(s) in {name}: {sorted(unknown)}")
    values = {}
    for f in keys:
        if f.name in raw:
            values[f.name] = _number(raw[f.name], f"{name}.{f.name}")
        elif f.default is MISSING:
            raise ParseError(f"missing required field {name}.{f.name}")
    return cls(**values)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document (JSON)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")

    keys = fields(Scenario)  # the top-level keys are Scenario's fields
    unknown = set(doc) - {f.name for f in keys}
    if unknown:
        raise ParseError(f"unknown top-level key(s): {sorted(unknown)}")
    for f in keys:
        if f.default is MISSING and f.name not in doc:
            raise ParseError(f"missing required field {f.name}")

    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in BLOCKS:
        raise ValidationError(
            "kind", f"must be one of {tuple(BLOCKS)}, got {kind!r}")
    for name in BLOCKS[kind]:
        if name not in doc:
            raise ParseError(f"{kind} scenario requires a {name} block")
    for name in _KIND_BLOCKS:
        if name in doc and name not in BLOCKS[kind]:
            raise ParseError(f"{name} block not allowed for kind={kind}")

    blocks = {name: _block(doc, name, cls)
              for name, cls in {**_SHARED_BLOCKS, **BLOCKS[kind]}.items()
              if name in doc}
    if kind == "chaotic":  # chaos tolerances unless the document sets them
        blocks.setdefault("integrator", CHAOS_SETTINGS)
    timing = {k: _number(doc[k], k) for k in ("horizon", "sample_step")}
    for name, value in timing.items():
        require_positive(name, value)

    scenario = Scenario(kind=kind, **timing, **blocks)
    if scenario.control is not None:
        control_mod.check_control(scenario.params, scenario.control.p,
                                  scenario.control.s_r0)
    return scenario


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a Scenario so that load_scenario returns an identical value."""
    s = scenario
    doc = {"kind": s.kind, "params": asdict(s.params),
           "initial": asdict(s.initial), "horizon": s.horizon,
           "sample_step": s.sample_step, "integrator": asdict(s.integrator)}
    for name in BLOCKS[s.kind]:
        doc[name] = asdict(getattr(s, name))
    return json.dumps(doc, indent=2) + "\n"


def run_scenario(scenario: Scenario) -> Trajectory:
    """Integrate the scenario's system and attach the derived series."""
    s = scenario
    if s.kind == "basic":
        y0 = np.array([s.initial.K, s.initial.E])
        raw = integrate(model.basic_rhs(s.params), y0, 0.0, s.horizon,
                        s.integrator, s.sample_step)
        return build_trajectory(s.params, raw, ("K", "E"))
    if s.kind == "controlled":
        return control_mod.simulate_controlled(
            s.params, s.control.p, s.initial, s.control.s_r0,
            s.horizon, s.integrator, s.sample_step)
    ch = s.chaos
    return chaos_mod.simulate_modulated(
        s.params, ch.c, s.initial, (ch.x0, ch.y0, ch.z0), ch.b,
        s.horizon, s.integrator, s.sample_step)


def _owner(kind: str, name: str) -> str | None:
    """The block of a scenario of this kind that has the field name."""
    for block, cls in {**_SHARED_BLOCKS, **BLOCKS[kind]}.items():
        if name in {f.name for f in fields(cls)}:
            return block
    return None


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    parameter: str              # one of SWEEPABLE
    values: tuple[float, ...]
    report_time: float

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValidationError("parameter",
                                  f"must be one of {SWEEPABLE}")
        if _owner(self.base.kind, self.parameter) is None:
            raise ValidationError("parameter", f"{self.parameter} does not "
                                  f"apply to {self.base.kind} scenarios")
        if not self.values:
            raise ValidationError("values", "must be non-empty")
        # checked before any run, by the rule Trajectory.at applies
        grid = _sample_grid(0.0, self.base.horizon, self.base.sample_step)
        if sample_index(grid, self.report_time) is None:
            raise ValidationError(
                "report_time", "must be a sample time of the base scenario "
                "(a multiple of sample_step within [0, horizon], or horizon)")


@dataclass(frozen=True)
class SweepRow:
    value: float
    Y: float | None
    C: float | None
    error: str | None = None


def _apply_parameter(base: Scenario, name: str, value: float) -> Scenario:
    block = _owner(base.kind, name)
    return replace(base, **{block: replace(getattr(base, block),
                                           **{name: value})})


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One independent run per value, in sequence; per-row failures do not
    stop the sweep."""
    rows = []
    for value in spec.values:
        try:
            scenario = _apply_parameter(spec.base, spec.parameter, value)
            row = run_scenario(scenario).at(spec.report_time)
            rows.append(SweepRow(value=value, Y=row["Y"], C=row["C"]))
        except CapEduError as exc:
            rows.append(SweepRow(value=value, Y=None, C=None, error=str(exc)))
    return rows


def _fmt(value: float) -> str:
    # shortest decimal that round-trips to the same double
    return repr(float(value))


def write_trajectory_csv(traj: Trajectory) -> str:
    """Column t, then traj.columns; full double precision; '\\n' separators."""
    cols = traj.columns
    lines = ["t," + ",".join(cols)]
    for i, t in enumerate(traj.times):
        lines.append(",".join([_fmt(t)] + [_fmt(traj.data[c][i]) for c in cols]))
    return "\n".join(lines) + "\n"


def read_trajectory_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and float table of a trajectory CSV; an empty cell reads as NaN.

    A data row with more or fewer cells than the header raises
    ValidationError naming the row, and a cell that is not a number raises
    it naming the column and the row.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) < 2:
        raise EmptySeries("CSV has no data rows")
    header = tuple(lines[0].split(","))
    try:
        table = np.array([[float(v) if v else np.nan for v in ln.split(",")]
                          for ln in lines[1:]])
        if table.shape[1] == len(header):
            return header, table
    except ValueError:  # a ragged row or a cell that is not a number
        pass
    for i, line in enumerate(lines[1:], 1):  # find the first bad row
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError("csv", f"data row {i} has {len(cells)} "
                                  f"cells, the header has {len(header)}")
        for name, cell in zip(header, cells):
            try:
                float(cell or "nan")
            except ValueError:
                raise ValidationError(name, f"non-numeric value {cell!r} in "
                                      f"data row {i}") from None


def write_sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["value,Y,C,error"]
    for r in rows:
        if r.error is None:
            lines.append(f"{_fmt(r.value)},{_fmt(r.Y)},{_fmt(r.C)},")
        else:
            msg = r.error.replace("\n", " ").replace(",", ";")
            lines.append(f"{_fmt(r.value)},,,{msg}")
    return "\n".join(lines) + "\n"


# --- minimal SVG line charts -------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def render_svg(series, title: str = "") -> str:
    """Standalone SVG with axes, polylines and a legend; deterministic text."""
    if not series:
        raise EmptySeries("no series to plot")
    cleaned = []
    for label, times, values in series:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.size == 0 or t.size != v.size:
            raise EmptySeries(f"series {label!r} is empty or ragged")
        cleaned.append((str(label), t, v))

    x_lo = min(float(t.min()) for _, t, _ in cleaned)
    x_hi = max(float(t.max()) for _, t, _ in cleaned)
    y_lo = min(float(v.min()) for _, _, v in cleaned)
    y_hi = max(float(v.max()) for _, _, v in cleaned)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.2f}" y="24" text-anchor="middle" '
            'font-family="sans-serif" font-size="16">'
            f'{html.escape(title, quote=False)}</text>')
    # axes
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>')
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black"/>')
    for x in np.linspace(x_lo, x_hi, 5):
        px = sx(x)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 20}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{x:.4g}</text>')
    for y in np.linspace(y_lo, y_hi, 5):
        py = sy(y)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{y:.4g}</text>')
    # polylines
    for i, (label, t, v) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(t, v))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')
    # legend
    for i, (label, _, _) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        ly = _MT + 8 + 18 * i
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" '
                   f'x2="{_W - _MR - 120}" y2="{ly}" stroke="{color}" '
                   'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 112}" y="{ly + 4}" '
                   'font-family="sans-serif" font-size="12">'
                   f'{html.escape(label, quote=False)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- phase portraits ---------------------------------------------------------

@dataclass(frozen=True)
class PhasePortrait:
    field_samples: np.ndarray            # rows (K, E, dK, dE)
    trajectories: tuple[RawTrajectory, ...]
    equilibrium: tuple[float, float] | None


def phase_portrait(params: ModelParams, k_range, e_range, grid=(8, 8),
                   horizon: float = 300.0,
                   settings: IntegratorSettings | None = None,
                   sample_step: float = 1.0) -> PhasePortrait:
    """Vector-field samples on a grid plus one trajectory seeded per node."""
    require_positive("horizon", horizon)  # first, as in find_tipping
    for name, (lo, hi) in (("k_range", k_range), ("e_range", e_range)):
        if not 0 < float(lo) < float(hi) < math.inf:
            raise ValidationError(name, "must be positive and increasing, "
                                  "with finite ends")
    nk, ne = grid
    if nk < 2 or ne < 2:
        raise ValidationError("grid", f"must be at least 2x2, got {nk}x{ne}")

    rhs = model.basic_rhs(params)
    ks = np.linspace(*map(float, k_range), nk)
    es = np.linspace(*map(float, e_range), ne)
    samples = []
    trajectories = []
    for K in ks:
        for E in es:
            dK, dE = rhs(np.array([K, E]))
            samples.append((K, E, dK, dE))
            trajectories.append(
                integrate(rhs, np.array([K, E]), 0.0, horizon,
                          settings, sample_step))
    eq = None
    if params.alpha + params.beta < 1:
        eq = equilibrium(params)
    return PhasePortrait(field_samples=np.array(samples),
                         trajectories=tuple(trajectories),
                         equilibrium=eq)


def write_phase_csv(portrait: PhasePortrait) -> str:
    """Field samples and orbit polylines in one flat table."""
    lines = ["record,index,t,K,E,dK,dE"]
    for i, (K, E, dK, dE) in enumerate(portrait.field_samples):
        lines.append(f"field,{i},,{_fmt(K)},{_fmt(E)},{_fmt(dK)},{_fmt(dE)}")
    for j, traj in enumerate(portrait.trajectories):
        for t, (K, E) in zip(traj.times, traj.states):
            lines.append(f"orbit,{j},{_fmt(t)},{_fmt(K)},{_fmt(E)},,")
    return "\n".join(lines) + "\n"
