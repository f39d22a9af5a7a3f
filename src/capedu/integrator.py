"""Adaptive explicit Runge-Kutta integration with fixed-grid sampling.

The method is the Dormand-Prince 5(4) embedded pair (the classic DOPRI5
tableau, FSAL).  Output samples are produced by shortening steps so that
the integrator lands exactly on each requested sample time; no interpolant
is involved, so the sample grid never depends on the internal step sizes.
The step size is limited only by error control and by sample landing.
As in dopri5.f, one function, generated from the tableau, holds the whole
march: landing, stages, checks and step controller, on scalar locals.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, StepLimitExceeded, ValidationError,
                     require_finite, require_positive, require_real,
                     require_series)
from .model import System

__all__ = ["IntegratorSettings", "IntegratorStats", "RawTrajectory",
           "integrate"]


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        require_positive("rel_tol", self.rel_tol)
        require_positive("abs_tol", self.abs_tol)


DEFAULT_SETTINGS = IntegratorSettings()

# chaos runs want tighter local error; window statistics are asserted, not
# pointwise states
CHAOS_SETTINGS = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)


@dataclass(frozen=True)
class IntegratorStats:
    """What one integrate run did.

    steps counts the attempts, each against the step budget; accepted of
    them passed the error test and domain_rejected ended at a stage outside
    the domain, so steps - accepted - domain_rejected failed the error
    test.  h_min and h_max are the smallest and largest accepted steps as
    taken, steps shortened to land on a sample included; NaN if no step
    was taken.  wall_s is the run's wall time in seconds.
    """

    steps: int
    accepted: int
    domain_rejected: int
    h_min: float
    h_max: float
    wall_s: float


@dataclass(frozen=True)
class RawTrajectory:
    """Times and states sampled on the requested output grid."""

    times: np.ndarray   # shape (n,), strictly increasing
    states: np.ndarray  # shape (n, dim)
    stats: IntegratorStats | None = None  # None if not made by integrate


# Dormand-Prince 5(4) tableau, as the Python floats the step sums run on
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th-order solution weights (row 7 of A by FSAL) and error weights b5 - b4
_B = _A[6] + (0.0,)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 1 / 5
_INITIAL_STEP = 1e-3
_MAX_STEPS = 10_000_000


def _terms(weights: Sequence[float], i: int) -> str:
    """w1 * k1_i + w2 * k2_i + ... over the non-zero weights, in order."""
    return " + ".join(f"{w!r} * k{j}_{i}"
                      for j, w in enumerate(weights, 1) if w)


# The march around the generated stages.  Its controller, with the module's
# constants written in, compares where min/max would be called, with the
# same results.  A rejected step (err > 1, or NaN) has a factor of at most
# 0.9, or NaN: the upper clamp leaves it, the lower turns NaN to _MIN_FACTOR.
# A stage outside the domain rejects the attempt too, as SUNDIALS treats a
# recoverable right-hand-side error, unless h would fall below the floor.
_MARCH = """\
def march(t, h, targets, stops, out, max_steps, h_floor, rtol, atol, {consts}):
    {y}, = out[:{n}]
    j = {n}
    steps = accepted = domain_rejected = 0
    h_min = h_max = math.nan  # NaN fails both tests: the first step sets both
    try:
{seed}
        for t_target, stop in zip(targets, stops):
            while t < stop:
                if steps >= max_steps:
                    raise StepLimitExceeded('max_steps=%s reached' % max_steps)
                steps += 1
                if t_target - t < h: h = t_target - t
                try:
{stages}
                except DomainError:
                    if h * {lo!r} < h_floor: raise
                    h *= {lo!r}
                    domain_rejected += 1
                    continue
{check}
                factor = {safety!r} * err ** {exp!r} if err else {hi!r}
                if factor > {hi!r}: factor = {hi!r}
                h_new = h * (factor if factor > {lo!r} else {lo!r})
                if err <= 1.0:
                    if not h >= h_min:  # a new smallest step: does t move?
                        if t + h == t:
                            raise StepLimitExceeded(
                                'step size %.6g no longer moves t' % h)
                        h_min = h
                    t = t + h
                    accepted += 1
                    if not h <= h_max: h_max = h
                    {accept}
                    {fsal}
                elif h_new < h_floor:
                    raise StepLimitExceeded(
                        'step size fell below the floor %.6g' % h_floor)
                h = h_new
            t = t_target
            j += {n}; {store}
        return steps, accepted, domain_rejected, h_min, h_max
    except (DomainError, StepLimitExceeded) as exc:
        raise type(exc)('%s (%s)' % (exc, {where})) from exc
    except ValidationError as exc:  # a field result that is not n numbers
        raise ValidationError(exc.field, '%s (%s)' % (
            str(exc).partition(': ')[2], {where})) from exc
"""


def _step_source(system: System) -> str:
    """Source of the DOPRI5 march on the states of system.

    march(t, h, targets, stops, out, max_steps, h_floor, rtol, atol,
    *constants) seeds FSAL with the field at row 0 of out, a flat view of
    the states, steps from there, writes rows 1, 2, ... at each target once
    t passes its stop, and returns IntegratorStats' counts and step sizes.
    Each evaluation runs the system's lines and derivatives inline; the
    stages (inputs and the 5th-order solution ynI) and the check (error
    terms eI) are read off _A, _B and _E.  The march's own names, which a
    System's may not be, are those in _MARCH, this module's, finite, total
    and the numbered yI, ynI, eI and kS_I.
    """
    n = len(system.states)
    dim = range(n)
    ys = ", ".join(f"y{i}" for i in dim)

    def evaluate(s: int, inputs: list[str]) -> list[str]:
        """Lines that set k{s}_0, k{s}_1, ... to the field at inputs."""
        return [*(f"{x} = {v}" for x, v in zip(system.states, inputs)),
                *system.lines,
                *(f"k{s}_{i} = {d}" for i, d in enumerate(system.derivatives))]

    stages = []
    for s in range(2, 7):
        stages += evaluate(s, [f"y{i} + h * ({_terms(_A[s - 1], i)})"
                               for i in dim])
    stages += [f"yn{i} = y{i} + h * ({_terms(_B, i)})" for i in dim]
    # FSAL: the last row of _A is _B, so the last stage is taken at y_new
    stages += evaluate(7, [f"yn{i}" for i in dim])
    # yn is not finite if a stage _B weighs (all but k2 and k7) is not
    values = [f"{v}{i}" for v in ("yn", "k2_", "k7_") for i in dim]
    check = [
        # a sum of finite values is finite unless it overflows, and then
        # each value is tested; before err, as a comparison passes a NaN
        f"total = {' + '.join(values)}",  # total - total: NaN, or 0.0 if finite
        f"if total - total and not all(map(finite, ({', '.join(values)}))):",
        "    raise DomainError('non-finite state in the step')",
        *(f"e{i} = h * ({_terms(_E, i)})" for i in dim),  # abs: a sign test
        *(f"e{i} = (e{i} if e{i} >= 0.0 else -e{i}) / "  # -0.0 acts as 0.0
          f"(atol + rtol * (yn{i} if yn{i} >= 0.0 else -yn{i}))" for i in dim),
        "err = e0",  # max(e0, e1, ...): the first largest, in order
        *(f"if e{i} > err: err = e{i}" for i in dim[1:]),
    ]
    # where the failed step started: its time, size and accepted state
    where = ("'from t=%.6g with h=%.6g, y=[%s]' % (t, h, ', '.join("
             f"'%.6g' % v for v in ({ys},)))")
    return _MARCH.format(
        consts=", ".join(system.constants), y=ys, n=n, where=where,
        safety=_SAFETY, exp=-_ORDER_EXP, lo=_MIN_FACTOR, hi=_MAX_FACTOR,
        seed="\n".join(" " * 8 + line
                       for line in evaluate(1, [f"y{i}" for i in dim])),
        stages="\n".join(" " * 20 + line for line in stages),
        check="\n".join(" " * 16 + line for line in check),
        accept="; ".join(f"y{i} = yn{i}" for i in dim),
        fsal="; ".join(f"k1_{i} = k7_{i}" for i in dim),  # the next k1
        store="; ".join(f"out[j - {n - i}] = y{i}" for i in dim))


@functools.cache
def _step_for(system: System) -> Callable:
    """_step_source(system) compiled in a copy of this module's names, once
    for each system."""
    namespace = dict(globals(), finite=math.isfinite, **system.names)
    exec(compile(_step_source(system), f"<dopri5 march, {system.name}>",
                 "exec"), namespace)
    return namespace["march"]


@functools.cache
def _opaque(n: int) -> System:
    """Any other field as a System of n states u0, u1, ...: its line calls
    the constant field; a list of n Python floats is kept, else
    require_series."""
    u = tuple(f"u{i}" for i in range(n))
    floats = " is ".join([*(f"type(k[{i}])" for i in range(n)), "float"])
    return System(f"field of {n}", u, ("field",), (
        f"{', '.join(u)}, = k if type(k := field(np.array([{', '.join(u)}])))"
        f" is list and len(k) == {n} and {floats} else "
        f"require_series('field', k, {n}).tolist()",
    ), u)


def _sample_grid(t0: float, t1: float, sample_step: float) -> np.ndarray:
    n = np.floor((t1 - t0) / sample_step + 1e-9)
    if n > _MAX_STEPS:  # each sample takes a step: refuse, not allocate
        raise ValidationError("sample_step", f"{sample_step!r} gives {n:.6g} "
                              f"samples, more than the step budget of "
                              f"{_MAX_STEPS}")
    grid = t0 + sample_step * np.arange(int(n) + 1)
    if n and grid[-1] >= t1 - 1e-12 * max(1.0, abs(t1)):
        grid[-1] = t1
    else:  # t0 stays, however close to t1
        grid = np.append(grid, t1)
    if not (grid[1:] > grid[:-1]).all():  # a step below the spacing of doubles
        grid = np.unique(np.minimum(grid, t1))
    return grid


def integrate(
    field: Callable[[np.ndarray], Sequence[float]],
    y0,
    t0: float,
    t1: float,
    settings: IntegratorSettings | None = None,
    sample_step: float = 0.1,
) -> RawTrajectory:
    """Integrate dy/dt = field(y) over [t0, t1], sampling every sample_step.

    field takes the state as a 1-D float ndarray and returns, on every call,
    as many real numbers: a list, a tuple or an ndarray.  The march, made
    from the tableau once per System, runs the System a field that
    System.bind made carries, inline at each stage; any other field is
    _opaque's constant, called once per stage, each result checked and
    made Python floats.  So numpy inputs give the bits and steps of the same
    floats, and the stages, summed in tableau order, the same bits on any
    BLAS build.

    The output grid always starts at t0 and ends at t1.  A DomainError at a
    stage rejects the attempt and retries it with h shrunk by _MIN_FACTOR;
    at y0, or where h would fall below 16 * 2**-52 * max(|t0|, |t1|), it is
    raised again.  StepLimitExceeded means the step budget ran out, a
    rejected step would shrink h below that floor, or a new smallest
    accepted step no longer moves t.  A ValidationError names a bad
    argument: t0 not finite, t1 not a number, y0 not a non-empty vector of
    finite numbers, or not one per state of a model field's System, the run
    length t1 - t0 (as horizon), sample_step not finite and positive or
    giving more samples than the step budget, or, as field, a result not as
    many real numbers as the state.  Each error of the march names the
    failed step's start t, h and y.  The stats say what the run did.
    """
    wall = time.perf_counter()
    settings = settings or DEFAULT_SETTINGS
    t0, t1 = require_finite("t0", t0), require_real("t1", t1)
    require_positive("horizon", t1 - t0)
    sample_step = require_positive("sample_step", sample_step)
    start = require_series("y0", y0)
    if not np.isfinite(start).all():
        raise ValidationError("y0", "must be finite")

    grid = _sample_grid(t0, t1, sample_step)
    # a rejected step may not shrink h below 16 ulps of the largest time:
    # t + h would no longer move t, and h would shrink until it underflows
    h_floor = 16 * 2.0 ** -52 * max(abs(t0), abs(t1))
    bound = hasattr(field, "system")  # made by System.bind
    system = field.system if bound else _opaque(start.size)
    if start.size != len(system.states):
        raise ValidationError("y0", f"has {start.size} components, the "
                              f"{system.name} system has {len(system.states)} "
                              f"states ({', '.join(system.states)})")
    states = np.empty((len(grid), start.size))
    states[0] = start
    stops = grid[1:] - 1e-14 * np.maximum(1.0, np.abs(grid[1:]))
    steps, accepted, domain_rejected, h_min, h_max = _step_for(system)(
        t0, _INITIAL_STEP, grid.tolist()[1:], stops.tolist(),
        memoryview(states.ravel()), _MAX_STEPS, h_floor,
        float(settings.rel_tol), float(settings.abs_tol),
        *(field.constants if bound else (field,)))
    stats = IntegratorStats(steps, accepted, domain_rejected, h_min, h_max,
                            time.perf_counter() - wall)
    return RawTrajectory(times=grid, states=states, stats=stats)
