"""Scenario documents, sweeps, CSV serialization, and minimal SVG plots.

A scenario is a single JSON object describing one simulation run; every
figure-style experiment ships as a checked-in scenario file so results are
reproducible byte for byte.
"""

from __future__ import annotations

import contextlib
import html
import json
import math
import operator
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import chaos as chaos_mod
from . import control as control_mod
from . import model
from .analysis import equilibrium
from .errors import (CapEduError, StructurallyUnstable, ValidationError,
                     require_finite, require_positive, require_series)
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

    def __post_init__(self):
        for name, value in vars(self).items():
            require_finite(name, value)


# the blocks each kind of scenario has beside the shared ones, and the class
# each block parses into; a block's keys are the fields of its class
BLOCKS = {"basic": {}, "controlled": {"control": ControlSpec},
          "chaotic": {"chaos": ChaosSpec}}
# the integrator settings each kind runs at for what it does not set
SETTINGS = {"basic": IntegratorSettings(), "controlled": IntegratorSettings(),
            "chaotic": CHAOS_SETTINGS}
_SHARED_BLOCKS = {"params": ModelParams, "initial": EconState,
                  "integrator": IntegratorSettings}
_KIND_BLOCKS = {name: cls for blocks in BLOCKS.values()
                for name, cls in blocks.items()}
# the block that has each field; no two block classes share a field name
_OWNER = {f.name: block for block, cls in
          {**_SHARED_BLOCKS, **_KIND_BLOCKS}.items() for f in fields(cls)}


@dataclass(frozen=True)
class Scenario:
    """One run, checked alike when load_scenario or code builds it: kind is
    one of BLOCKS and has exactly its own blocks, horizon and sample_step
    are finite and positive, and a control block passes check_control."""

    kind: str
    params: ModelParams
    initial: EconState
    horizon: float
    sample_step: float
    control: ControlSpec | None = None
    chaos: ChaosSpec | None = None
    integrator: IntegratorSettings | None = None  # None: the kind's SETTINGS

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, str) or kind not in BLOCKS:
            raise ValidationError(
                "kind", f"must be one of {tuple(BLOCKS)}, got {kind!r}")
        if self.integrator is None:
            object.__setattr__(self, "integrator", SETTINGS[kind])
        for name in BLOCKS[kind]:
            if getattr(self, name) is None:
                raise ValidationError(name, f"block required for kind={kind}")
        for name in _KIND_BLOCKS:
            if getattr(self, name) is not None and name not in BLOCKS[kind]:
                raise ValidationError(name,
                                      f"block not allowed for kind={kind}")
        require_positive("horizon", self.horizon)
        require_positive("sample_step", self.sample_step)
        if self.control is not None:
            control_mod.check_control(self.params, self.control.p,
                                      self.control.s_r0)

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.params.alpha + self.params.beta >= 1:
            # simulation is legal; only equilibrium analysis will refuse
            return ("alpha + beta >= 1: no stable positive equilibrium",)
        return ()


def _block(doc: dict, name: str, cls, default=None):
    """Build cls, which checks its own ranges, from the object doc[name]; a
    key the object leaves out takes its value from default, when given."""
    raw = doc[name]
    if not isinstance(raw, dict):
        raise ValidationError(name, "must be an object")
    keys = fields(cls)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ValidationError(name, f"unknown key(s) {sorted(unknown)}")
    values = {}
    for f in keys:
        if f.name in raw:
            values[f.name] = require_finite(f"{name}.{f.name}", raw[f.name])
        elif f.default is MISSING and default is None:
            raise ValidationError(f"{name}.{f.name}", "missing required field")
    return cls(**values) if default is None else replace(default, **values)


def load_scenario(text: str) -> Scenario:
    """Parse a scenario document (JSON); Scenario checks its rules."""
    try:  # ValueError: also an integer literal of over 4300 digits
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # or one nested too deep
        raise ValidationError("scenario", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("scenario", "must be a JSON object")

    keys = fields(Scenario)  # the top-level keys are Scenario's fields
    unknown = set(doc) - {f.name for f in keys}
    if unknown:
        raise ValidationError("scenario", f"unknown key(s) {sorted(unknown)}")
    for f in keys:
        if f.default is MISSING and f.name not in doc:
            raise ValidationError(f.name, "missing required field")

    kind = doc["kind"]  # Scenario refuses a kind that is not a str
    # a partial integrator block takes its missing keys from its kind's row
    base = {"integrator": SETTINGS.get(kind)} if isinstance(kind, str) else {}
    blocks = {name: _block(doc, name, cls, base.get(name))
              for name, cls in {**_SHARED_BLOCKS, **_KIND_BLOCKS}.items()
              if name in doc}
    timing = {k: require_finite(k, doc[k]) for k in ("horizon", "sample_step")}
    return Scenario(kind=kind, **timing, **blocks)


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
    s = scenario  # a Scenario has exactly its kind's blocks
    if s.control is not None:
        return control_mod.simulate_controlled(
            s.params, s.control.p, s.initial, s.control.s_r0,
            s.horizon, s.integrator, s.sample_step)
    if s.chaos is not None:
        ch = s.chaos
        return chaos_mod.simulate_modulated(
            s.params, ch.c, s.initial, (ch.x0, ch.y0, ch.z0), ch.b,
            s.horizon, s.integrator, s.sample_step)
    raw = integrate(model.basic_rhs(s.params), [s.initial.K, s.initial.E],
                    0.0, s.horizon, s.integrator, s.sample_step)
    return build_trajectory(s.params, raw, model.BASIC.states)


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    parameter: str              # a field of a block of base
    values: tuple[float, ...]
    report_time: float

    def __post_init__(self):
        kind = self.base.kind
        blocks = {**_SHARED_BLOCKS, **BLOCKS[kind]}
        if _OWNER.get(self.parameter) not in blocks:
            raise ValidationError(
                "parameter", f"{self.parameter} is not a field of the blocks "
                f"of a {kind} scenario ({', '.join(blocks)})")
        object.__setattr__(self, "values", tuple(
            require_series("values", self.values).tolist()))
        # checked before any run, by the rule Trajectory.at applies
        grid = _sample_grid(0.0, self.base.horizon, self.base.sample_step)
        if sample_index(grid, require_finite("report_time",
                                             self.report_time)) is None:
            raise ValidationError(
                "report_time", "must be a sample time of the base scenario "
                "(a multiple of sample_step within [0, horizon], or horizon)")


@dataclass(frozen=True)
class SweepRow:
    value: float
    Y: float | None
    C: float | None
    error: str | None = None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One independent run per value, in sequence; per-row failures do not
    stop the sweep.  A value its block or Scenario rejects fails its row.
    Each run ends at the sample it reports (the first after 0 for time 0):
    that grid time as the horizon keeps the grid's prefix and every step.
    """
    base, name = spec.base, spec.parameter
    grid = _sample_grid(0.0, base.horizon, base.sample_step)
    horizon = float(grid[max(1, sample_index(grid, spec.report_time))])
    rows = []
    for value in spec.values:
        try:
            block = replace(getattr(base, _OWNER[name]), **{name: value})
            scenario = replace(base, horizon=horizon,
                               **{_OWNER[name]: block})
            row = run_scenario(scenario).at(spec.report_time)
            rows.append(SweepRow(value=value, Y=row["Y"], C=row["C"]))
        except CapEduError as exc:
            rows.append(SweepRow(value=value, Y=None, C=None, error=str(exc)))
    return rows


def _csv(header, columns) -> str:
    # repr of each value as a Python float (3 as 3.0), the shortest decimal
    # that round-trips to it
    rows = zip(*[map(repr, np.asarray(col, float).tolist()) for col in columns])
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def write_trajectory_csv(traj: Trajectory) -> str:
    """Column t, then traj.columns; full double precision; '\\n' separators."""
    return _csv(("t",) + traj.columns,
                [traj.times, *(traj.data[c] for c in traj.columns)])


def read_trajectory_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and float table of a trajectory CSV; an empty cell reads as NaN.

    A text with no data rows raises ValidationError naming csv, a data row
    with more or fewer cells than the header raises it naming the row, and
    a cell that is not a number raises it naming the column and the row.  One np.loadtxt pass parses a table;
    the per-row loop, with float() per cell, runs only on one it refuses.
    Rows end at "\n" alone, and a "\r" before it is dropped; an empty row
    is skipped.
    """
    lines = [ln.removesuffix("\r") for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2:
        raise ValidationError("csv", "no data rows")
    header, rows = tuple(lines[0].split(",")), lines[1:]
    with contextlib.suppress(ValueError):
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        # loadtxt strips \x1c-\x1f as spaces; float() refuses a cell with one
        if table.shape[1] == len(header) and not any(
                c in text for c in "\x1c\x1d\x1e\x1f"):
            return header, table
    table = np.empty((len(rows), len(header)))
    for i, line in enumerate(rows, 1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError("csv", f"data row {i} has {len(cells)} "
                                  f"cells, the header has {len(header)}")
        for j, (name, cell) in enumerate(zip(header, cells)):
            try:
                table[i - 1, j] = float(cell or "nan")
            except ValueError:
                raise ValidationError(name, f"non-numeric value {cell!r} in "
                                      f"data row {i}") from None
    return header, table


def write_sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["value,Y,C,error"]
    for r in rows:
        if r.error is None:
            lines.append(f"{float(r.value)!r},{float(r.Y)!r},{float(r.C)!r},")
        else:
            msg = r.error.replace("\n", " ").replace(",", ";")
            lines.append(f"{float(r.value)!r},,,{msg}")
    return "\n".join(lines) + "\n"


# --- minimal SVG line charts -------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50
# A polyline of fewer points is formatted point by point.  Median times of
# `capedu plot --columns Y,C` in one process (Python 3.11, numpy 2.4, a
# 2-vCPU host), per point then numpy: 482 and 551 us at 41 points, 658 and
# 668 at 101, 678 and 664 at 129, 759 and 690 at 201.
_FIXED2_MIN_POINTS = 128
# values per numpy pass; one pass over a whole long polyline raises peak RSS
_FIXED2_BLOCK = 8192
_SPLIT = 134217729.0  # 2**27 + 1: v * _SPLIT splits v into two 26-bit halves


def _fixed2(v: np.ndarray) -> str:
    """'{:.2f}' of each value of v, followed by ',' at even and ' ' at odd
    positions; every value is in (0, 999.99) and v.size is even.

    format rounds the exact binary value half to even.  v*100 is y + e
    exactly (Dekker's product: 100 needs no split), so g, the fraction of
    y less 1/2 plus e, has the exact sign of the fraction of v*100 less 1/2.
    """
    y = v * 100
    t = v * _SPLIT
    hi = t - (t - v)
    e = (hi * 100 - y) + (v - hi) * 100
    r = np.floor(y)
    g = (y - r - 0.5) + e
    n = r.astype(np.int32) + (g > 0)
    n += (g == 0) & (n & 1)  # a tie rounds to the even neighbour
    text = np.empty((v.size, 7), np.uint8)  # "ddd.dd" and the separator
    text[:, 3] = ord(".")
    text[0::2, 6] = ord(",")
    text[1::2, 6] = ord(" ")
    keep = np.ones(text.shape, bool)  # all but the leading zeros
    keep[:, 0] = n >= 10000
    keep[:, 1] = n >= 1000
    for col in (5, 4, 2, 1, 0):
        n, digit = np.divmod(n, 10)
        text[:, col] = digit + ord("0")
    return text[keep].tobytes().decode()


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """'x,y x,y ...' with each coordinate as '{:.2f}' writes it."""
    if x.size >= _FIXED2_MIN_POINTS:
        xy = np.column_stack((x, y)).ravel()
        # always true for render_svg, whose coordinates lie in [_MT, _W - _MR]
        if 0 < xy.min() and xy.max() < 999.99:  # False for a NaN
            return "".join(_fixed2(xy[i:i + _FIXED2_BLOCK]) for i in
                           range(0, xy.size, _FIXED2_BLOCK))[:-1]
    return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))


def _axis(lo: float, hi: float) -> tuple[float, float]:
    """The plotted range of finite data from lo to hi.  A single value is
    padded by 0.5 each side, or by more where 0.5 is below its spacing,
    and the range stays within the finite doubles."""
    if hi > lo:
        return lo, hi
    pad, top = max(0.5, abs(lo) * 2**-50), sys.float_info.max
    return max(lo - pad, -top), min(hi + pad, top)


def render_svg(series, title: str = "") -> str:
    """Standalone SVG with axes, polylines and a legend; deterministic text.

    Each point is written as "{:.2f},{:.2f}".format writes it: the exact
    binary value rounded to hundredths, a tie to the even neighbour.  A
    polyline of 128 points or more is formatted in numpy to the same text;
    a shorter one is formatted point by point.  A series that is not two
    1-D series of real numbers of one length, has a value that is not
    finite, or widens the plotted range past the largest double raises
    ValidationError naming it (series: none, or not such triples).
    """
    try:
        series = [(str(label), t, v) for label, t, v in series]
    except (TypeError, ValueError):  # not an iterable of triples
        series = None
    if not series:
        raise ValidationError("series", "need (label, times, values) triples")
    cleaned = []
    x_lo = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for label, times, values in series:
        t, v = require_series(label, times), require_series(label, values)
        if t.size != v.size:
            raise ValidationError(label, "empty or ragged")
        ends = float(t.min()), float(t.max()), float(v.min()), float(v.max())
        x_lo, x_hi = min(x_lo, ends[0]), max(x_hi, ends[1])
        y_lo, y_hi = min(y_lo, ends[2]), max(y_hi, ends[3])
        # min and max return a NaN the series has; finite spans keep every
        # coordinate finite
        if not all(map(math.isfinite, (*ends, x_hi - x_lo, y_hi - y_lo))):
            raise ValidationError(label, "values must be finite, within "
                                  "a range a double can span")
        cleaned.append((label, t, v))

    x_lo, x_hi = _axis(x_lo, x_hi)
    y_lo, y_hi = _axis(y_lo, y_hi)

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
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{_points(sx(t), sy(v))}"/>')
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
                   settings: IntegratorSettings | None = None) -> PhasePortrait:
    """Vector-field samples on a grid plus one trajectory seeded per node,
    sampled every 1.0."""
    require_positive("horizon", horizon)  # first, as in find_tipping
    ranges = {"k_range": k_range, "e_range": e_range}
    for name, pair in ranges.items():
        lo, hi = ranges[name] = require_series(name, pair, 2).tolist()
        if not 0 < lo < hi < math.inf:
            raise ValidationError(name, "must be positive and increasing, "
                                  "with finite ends")
    try:
        nk, ne = map(operator.index, grid)
    except (TypeError, ValueError):  # not a pair, or not of integers
        raise ValidationError("grid", f"not two integers: {grid!r}") from None
    if nk < 2 or ne < 2:
        raise ValidationError("grid", f"must be at least 2x2, got {nk}x{ne}")

    rhs = model.basic_rhs(params)
    ks = np.linspace(*ranges["k_range"], nk)
    es = np.linspace(*ranges["e_range"], ne)
    samples = []
    trajectories = []
    for K in ks:
        for E in es:
            dK, dE = rhs(np.array([K, E]))
            samples.append((K, E, dK, dE))
            trajectories.append(
                integrate(rhs, np.array([K, E]), 0.0, horizon, settings, 1.0))
    eq = None
    with contextlib.suppress(StructurallyUnstable):  # s_k = 0 or out of range
        eq = equilibrium(params) if params.alpha + params.beta < 1 else None
    return PhasePortrait(field_samples=np.array(samples),
                         trajectories=tuple(trajectories),
                         equilibrium=eq)


def write_phase_csv(portrait: PhasePortrait) -> str:
    """Field samples and orbit polylines in one flat table; the t cells of
    each distinct sample grid are formatted once, keyed on its bits."""
    lines = ["record,index,t,K,E,dK,dE"]
    for i, row in enumerate(portrait.field_samples.tolist()):
        lines.append(f"field,{i},," + ",".join(map(repr, row)))
    grids = {}
    for j, traj in enumerate(portrait.trajectories):
        key = traj.times.tobytes()
        if key not in grids:
            grids[key] = list(map(repr, traj.times.tolist()))
        K, E = traj.states.T.tolist()
        head = f"orbit,{j},"
        rows = f",,\n{head}".join(
            map(",".join, zip(grids[key], map(repr, K), map(repr, E))))
        if rows:  # an orbit without samples has no rows
            lines.append(head + rows + ",,")
    return "\n".join(lines) + "\n"
