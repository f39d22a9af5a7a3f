"""Parameter set and right-hand sides of the growth model systems.

Three systems share the same economic core (Cobb-Douglas output
Y = E^alpha * K^beta feeding proportional investments):

* basic        -- 2-D (K, E)
* chaotic      -- 5-D (K, E, x, y, z): the capital investment fraction is
                  modulated by a chaotic driver, s_k + c*x(t)
* controlled   -- 3-D (K, E, s_r): education investment adjusts so that
                  consumption tracks a target fraction p of output; the
                  same run as (K, E, Q) with s_r solved exactly in Q' = Y

Each system, and the chaotic driver ne9, is declared once as a System:
its state names and one expression per derivative, as source text.  The
modulated system is built from the basic one and ne9.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import ClassVar

from .errors import (DomainError, ValidationError, require_finite,
                     require_positive)

__all__ = [
    "ModelParams", "EconState", "output", "basic_rhs", "ne9_rhs",
    "modulated_rhs", "control_rhs", "NE9_B_DEFAULT", "NE9_START_DEFAULT",
]

NE9_B_DEFAULT = 0.55
NE9_START_DEFAULT = (0.5, 0.0, 0.0)


@dataclass(frozen=True)
class ModelParams:
    """The six structural constants plus the minimal education investment.

    s_k, s_r    fractions of output invested in capital / education
    delta_k     capital decay rate (wear and tear)
    delta_r     expertise decay rate (obsolescence, forgetting)
    alpha, beta output elasticities of education and capital
    s_r_floor   minimal education investment fraction, only used for
                constraint-violation flags (never enforced)
    """

    s_k: float
    s_r: float
    delta_k: float
    delta_r: float
    alpha: float
    beta: float
    s_r_floor: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():  # numbers, before any range
            (require_positive if name in ("delta_k", "delta_r")
             else require_finite)(name, value)
        for name, holds, rule in (  # the first rule that fails is named
                ("s_k", 0 <= self.s_k <= 1, "must lie in [0, 1]"),
                ("s_r", self.s_r > 0, "must be positive"),
                ("s_r", self.s_r <= 1, "must be at most 1"),
                ("s_r_floor", self.s_r_floor >= 0, "must be non-negative"),
                ("s_r", self.s_r >= self.s_r_floor, "below s_r_floor"),
                ("s_k", self.s_k + self.s_r <= 1,
                 "s_k + s_r must not exceed 1"),
                ("alpha", 0 < self.alpha < 1, "must lie in (0, 1)"),
                ("beta", 0 < self.beta < 1, "must lie in (0, 1)")):
            if not holds:
                raise ValidationError(name, rule)


@dataclass(frozen=True)
class EconState:
    K: float  # capital stock
    E: float  # education / expertise stock

    def __post_init__(self):
        require_positive("K", self.K)
        require_positive("E", self.E)


_INF = float("inf")


def _require_positive(K, E):
    # fractional powers are undefined at non-positive bases; the economy
    # model is meaningless there.  Scalars only: the guard line runs this
    # test inline, and NaN fails every comparison, so it misses no case.
    if 0.0 < K < _INF and 0.0 < E < _INF:
        return
    if not (math.isfinite(K) and math.isfinite(E)):
        raise DomainError(f"non-finite state K={K}, E={E}")
    raise DomainError(f"K and E must stay positive, got K={K}, E={E}")


# Cobb-Douglas output, written once: the economies evaluate this text in
# their Y line, and output() is compiled from it for floats and arrays alike
_OUTPUT = "E ** alpha * K ** beta"

# the names a System's lines may use
_NAMES = {"_require_positive": _require_positive, "_INF": _INF,
          "exp": math.exp}


def _compiled(name: str, lines: list[str]) -> dict:
    """The namespace after running the source lines, which may call the
    functions in _NAMES."""
    namespace = dict(_NAMES)
    exec(compile("\n".join(lines) + "\n", f"<capedu {name}>", "exec"),
         namespace)
    return namespace


output = _compiled("output", [
    "def output(params, K, E):",
    '    """Output Y = E^alpha * K^beta, on floats or on arrays."""',
    "    alpha, beta = params.alpha, params.beta",
    f"    return {_OUTPUT}",
])["output"]


@dataclass(frozen=True, eq=False)
class System:
    """One vector field, declared once as source text: the names of its
    states and of the constants bound per run (ModelParams fields by their
    names), the lines each evaluation runs first (the domain guard and Y,
    using only the names in names) and one expression per derivative.

    bind() compiles the array form once per system.  integrate marches only
    Systems (any other callable as integrator._opaque's), inlining the text
    at each stage; names must differ from those of integrator._step_source.
    """

    name: str
    states: tuple[str, ...]
    constants: tuple[str, ...]
    lines: tuple[str, ...]
    derivatives: tuple[str, ...]

    names: ClassVar[dict] = _NAMES

    @functools.cached_property
    def _array_form(self):
        return _compiled(f"{self.name} field", [
            f"def bind({', '.join(self.constants)}):",
            "    def rhs(v):",
            f"        {', '.join(self.states)}, = v.tolist()",
            *(f"        {line}" for line in self.lines),
            f"        return [{', '.join(self.derivatives)}]",
            "    return rhs",
        ])["bind"]

    def bind(self, params: ModelParams | None = None, **values):
        """The field with its constants bound, taken from values or params.

        It takes a flat float ndarray and returns a list of Python floats,
        and carries .system and .constants, so that integrate inlines it.
        The constants are stored as Python floats, so a numpy scalar does
        not carry through every sum of the march.
        """
        constants = tuple(float(values[name] if name in values
                                else getattr(params, name))
                          for name in self.constants)
        rhs = self._array_form(*constants)
        rhs.system, rhs.constants = self, constants
        return rhs


BASIC = System(
    "basic", states=("K", "E"),
    constants=("s_k", "s_r", "delta_k", "delta_r", "alpha", "beta"),
    lines=("if not (0.0 < K < _INF and 0.0 < E < _INF): "
           "_require_positive(K, E)", f"Y = {_OUTPUT}"),
    derivatives=("s_k * Y - delta_k * K", "s_r * Y - delta_r * E"))

NE9 = System(
    "ne9", states=("x", "y", "z"), constants=("b",), lines=(),
    derivatives=("y", "-x - y * z", "-x * z + 7.0 * x * x - b"))

# the driver modulates the capital investment fraction: s_k in the basic
# equations becomes s_k + c*x
MODULATED = System(
    "modulated", states=BASIC.states + NE9.states,
    constants=BASIC.constants + ("c",) + NE9.constants, lines=BASIC.lines,
    derivatives=tuple(re.sub(r"\bs_k\b", "(s_k + c * x)", d)
                      for d in BASIC.derivatives) + NE9.derivatives)

# s_r becomes a state that drifts at the rate consumption exceeds p*Y
CONTROLLED = System(
    "controlled", states=BASIC.states + ("s_r",),
    constants=tuple(n for n in BASIC.constants if n != "s_r") + ("p",),
    lines=BASIC.lines,
    derivatives=BASIC.derivatives + ("(1.0 - s_k - s_r - p) * Y",))

# s_r' = (s_rs - s_r) Y with s_rs = 1 - s_k - p is linear in s_r: with Q' = Y,
# s_r = s_rs + u0 exp(-Q) solves it exactly, u0 = s_r(0) - s_rs (an
# integrating factor, Lawson 1967), so no state carries the fast -Y mode
CONTROLLED_Q = System(
    "controlled_q", states=BASIC.states + ("Q",),
    constants=tuple(n for n in BASIC.constants if n != "s_r") + ("s_rs", "u0"),
    lines=BASIC.lines + ("s_r = s_rs + u0 * exp(-Q)",),
    derivatives=BASIC.derivatives + ("Y",))


def basic_rhs(params: ModelParams):
    """d/dt (K, E) for the basic 2-D system."""
    return BASIC.bind(params)


def ne9_rhs(b: float = NE9_B_DEFAULT):
    """d/dt (x, y, z) of the chaotic driver."""
    return NE9.bind(b=b)


def modulated_rhs(params: ModelParams, c: float, b: float = NE9_B_DEFAULT):
    """d/dt (K, E, x, y, z): capital investment coefficient s_k + c*x."""
    return MODULATED.bind(params, c=c, b=b)


def control_rhs(params: ModelParams, p: float):
    """d/dt (K, E, s_r): s_r drifts at the rate consumption exceeds p*Y."""
    return CONTROLLED.bind(params, p=p)
