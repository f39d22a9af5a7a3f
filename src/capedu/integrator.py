"""Adaptive explicit Runge-Kutta integration with fixed-grid sampling.

The method is the Dormand-Prince 5(4) embedded pair (the classic DOPRI5
tableau, FSAL).  Output samples are produced by shortening steps so that
the integrator lands exactly on each requested sample time; no interpolant
is involved, so the sample grid never depends on the internal step sizes.
The step size is limited only by error control and by sample landing.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NonFiniteState, StepLimitExceeded,
                     require_positive)

__all__ = ["IntegratorSettings", "RawTrajectory", "integrate",
           "step_source"]


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
class RawTrajectory:
    """Times and states sampled on the requested output grid."""

    times: np.ndarray   # shape (n,), strictly increasing
    states: np.ndarray  # shape (n, dim)


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


def _terms(weights: Sequence[float], i: int) -> str:
    """w1 * k1_i + w2 * k2_i + ... over the non-zero weights, in tableau
    order."""
    return " + ".join(f"{w!r} * k{j}_{i}"
                      for j, w in enumerate(weights, 1) if w)


def _step_source(n: int, system=None) -> str:
    """Source of one DOPRI5 step on a state of n components.

    bind(rtol, atol, *constants) returns step(state, k, h), with k the first
    stage (the last stage of the previous accepted step).  The step unpacks
    the state and each stage into scalar locals and writes every stage
    input, the 5th-order solution yn and the error terms as scalar
    expressions read off _A, _B and _E.  For a model System each stage runs
    the system's lines and derivatives inline; otherwise the one constant
    is field, called once per stage on an ndarray.  The step returns
    (y_new, k7, err), with err the max-norm of the error estimate over
    abs_tol + rel_tol*|y_new|; None when a stage or y_new is not finite;
    and the length of a field result that is not n long.  The step's own
    names, which a System's may not be, are state, k, h, rtol, atol, field,
    err, array, finite and the numbered yI, ynI and kS_I.
    """
    dim = range(n)
    constants = ("field",) if system is None else system.constants

    def unpack(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in dim)

    def evaluate(s: int, inputs: list[str]) -> list[str]:
        """Lines that set k{s}_0, k{s}_1, ... to the field at inputs."""
        if system is None:
            return [f"k = field(array([{', '.join(inputs)}]))",
                    f"{unpack(f'k{s}_')}= k"]
        return [*(f"{x} = {v}" for x, v in zip(system.states, inputs)),
                *system.lines,
                *(f"k{s}_{i} = {d}" for i, d in enumerate(system.derivatives))]

    body = [f"{unpack('k1_')}= k"]
    for s in range(2, 7):
        body += evaluate(s, [f"y{i} + h * ({_terms(_A[s - 1], i)})"
                             for i in dim])
    body += [f"yn{i} = y{i} + h * ({_terms(_B, i)})" for i in dim]
    # FSAL: the last row of _A is _B, so the last stage is taken at y_new
    body += evaluate(7, [f"yn{i}" for i in dim])
    if system is None:
        body = ["try:", *(f"    {line}" for line in body),
                "except ValueError:",
                f"    if len(k) != {n}:",
                "        return len(k)",
                "    raise"]

    values = [f"yn{i}" for i in dim] + [f"k{s}_{i}" for s in range(1, 8)
                                        for i in dim]
    errors = ", ".join(f"abs(h * ({_terms(_E, i)})) / (atol + rtol * "
                       f"abs(yn{i}))" for i in dim)
    lines = [
        f"def bind(rtol, atol, {', '.join(constants)}):",
        "    def step(state, k, h):",
        f"        {unpack('y')}= state",
        *(f"        {line}" for line in body),
        # a sum of finite values is finite unless it overflows, and then
        # each value is tested; before err, as max() passes over a NaN
        f"        if not finite({' + '.join(values)}) and not all(map("
        f"finite, ({', '.join(values)}))):",
        "            return None",
        f"        err = {f'max({errors})' if n > 1 else errors}",
        f"        return [{', '.join(f'yn{i}' for i in dim)}], "
        f"[{', '.join(f'k7_{i}' for i in dim)}], err",
        "    return step",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _step_for(n: int, system=None) -> Callable:
    """bind of _step_source(n, system), compiled once for each dimension
    and system."""
    namespace = {"array": np.array, "finite": math.isfinite}
    if system is not None:
        namespace.update(system.names)
    name = f"n={n}" if system is None else system.name
    exec(compile(_step_source(n, system), f"<dopri5 step, {name}>", "exec"),
         namespace)
    return namespace["bind"]


def step_source(field: Callable, n: int) -> str:
    """The source of the step integrate runs for field on n components."""
    return _step_source(n, getattr(field, "system", None))


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 1 / 5
_INITIAL_STEP = 1e-3
_MAX_STEPS = 10_000_000


def _sample_grid(t0: float, t1: float, sample_step: float) -> np.ndarray:
    n = int(np.floor((t1 - t0) / sample_step + 1e-9))
    grid = t0 + sample_step * np.arange(n + 1)
    if grid[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        grid = np.append(grid, t1)
    else:
        grid[-1] = t1
    return grid


def _where(t: float, h: float, y: Sequence[float]) -> str:
    """Where a failed step started: its time, size and accepted state."""
    state = ", ".join(f"{v:.6g}" for v in y)
    return f"from t={t:.6g} with h={h:.6g}, y=[{state}]"


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
    a sequence of exactly as many numbers: a list, a tuple or an ndarray.
    The step is generated from the tableau once for each state dimension,
    and once for each model System: a field that System.bind made carries
    .system and .constants, and its expressions are inlined at each stage
    of the step, which gives the same bits as calling it.  Any other field
    is called once per stage.  The step sums the stages in Python floats
    in tableau order, so a rerun gives the same bits on any BLAS build.

    The final time t1 is always included in the output grid.  Raises
    StepLimitExceeded when the step budget runs out or a rejected step would
    shrink h below 16 * 2**-52 * max(|t0|, |t1|), and NonFiniteState when
    the solution leaves the finite domain; a DomainError raised by the field
    is raised again as a DomainError.  Each of them names the failed step's
    start time t, step size h and state y.  ValueError flags bad arguments:
    a non-finite t0, a bad y0, a field whose result is not a 1-D sequence
    of as many numbers as the state (named with the step's t, h and y), and
    (as a ValidationError that names it) a run length t1 - t0, named
    horizon, or a sample_step that is not finite and positive.
    """
    settings = settings or DEFAULT_SETTINGS
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    require_positive("horizon", t1 - t0)
    require_positive("sample_step", sample_step)

    start = np.array(y0, dtype=float)
    if start.ndim != 1 or start.size < 1:
        raise ValueError("y0 must be a non-empty 1-D state vector")
    if not np.all(np.isfinite(start)):
        raise NonFiniteState("initial state is not finite")

    grid = _sample_grid(t0, t1, sample_step)
    out = np.empty((len(grid), start.size))
    out[0] = start

    max_steps = _MAX_STEPS
    # a rejected step may not shrink h below 16 ulps of the largest time:
    # t + h would no longer move t, and h would shrink until it underflows
    h_floor = 16 * 2.0 ** -52 * max(abs(t0), abs(t1))
    h = _INITIAL_STEP
    t = t0
    y = start.tolist()
    k7 = field(start)  # seeds FSAL; the step checks the length of each result
    if np.ndim(k7) != 1:  # the step would fail to unpack it as n numbers
        raise ValueError(f"field returned a result of shape {np.shape(k7)} "
                         f"for a state of {start.size} ({_where(t, h, y)})")
    system = getattr(field, "system", None)
    step = _step_for(start.size, system)(
        settings.rel_tol, settings.abs_tol,
        *(field.constants if system is not None else (field,)))
    steps = 0

    for i, t_target in enumerate(grid.tolist()[1:], 1):
        while t < t_target - 1e-14 * max(1.0, abs(t_target)):
            if steps >= max_steps:
                raise StepLimitExceeded(
                    f"max_steps={max_steps} reached ({_where(t, h, y)})")
            steps += 1
            h = min(h, t_target - t)

            try:
                stepped = step(y, k7, h)
            except DomainError as exc:
                raise DomainError(f"{exc} ({_where(t, h, y)})") from exc
            if stepped.__class__ is not tuple:
                if stepped is None:
                    raise NonFiniteState(
                        f"non-finite state in the step ({_where(t, h, y)})")
                raise ValueError(f"field returned {stepped} values for a "
                                 f"state of {len(y)} ({_where(t, h, y)})")
            y_new, k_last, err = stepped

            if err <= 1.0:
                t = t + h
                y = y_new
                k7 = k_last  # FSAL: the next step's first stage
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
                h = h * max(_MIN_FACTOR, factor)
            else:
                shrunk = h * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)
                if shrunk < h_floor:
                    raise StepLimitExceeded(
                        f"step size fell below the floor {h_floor:.6g} "
                        f"({_where(t, h, y)})")
                h = shrunk
        t = t_target
        out[i] = y

    return RawTrajectory(times=grid, states=out)
