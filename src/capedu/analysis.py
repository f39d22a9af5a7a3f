"""Closed-form equilibria, Jacobians, eigenvalues and stability classes.

Everything here is exact algebra with no iterative or matrix solver, which
makes these results an independent oracle for the simulations: Cramer's rule
solves the 2x2 linear system in (ln E, ln K) for the positive equilibrium,
the eigenvalues are the roots of a quadratic whose discriminant is positive
(a node or a saddle, never a focus), and the 3-D controlled system is
block-triangular so its third eigenvalue is just -Y0.  The same log-linear
solution, read backwards, gives the tipping target at an infinite horizon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (StructurallyUnstable, ValidationError, require_real,
                     require_series)
from .model import ModelParams, output

__all__ = [
    "Stability", "EquilibriumReport", "check_target",
    "equilibrium", "jacobian_basic", "eigen_basic", "classify",
    "equilibrium_report", "controlled_equilibrium", "tipping_root",
    "invariant_manifold",
]

DEGENERACY_TOL = 1e-12
LN_MAX = math.log(np.finfo(float).max)  # |ln x| < LN_MAX: x, 1/x finite


class Stability(enum.Enum):
    STABLE_NODE = "StableNode"
    SADDLE = "Saddle"
    UNSTABLE = "Unstable"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class EquilibriumReport:
    K0: float
    E0: float
    Y0: float
    jacobian: np.ndarray          # 2x2 (basic) or 3x3 (controlled)
    eigenvalues: tuple[float, ...]
    classification: Stability


def _check_nondegenerate(params: ModelParams):
    if abs(params.alpha + params.beta - 1.0) < DEGENERACY_TOL:
        raise StructurallyUnstable(
            "alpha + beta = 1: no isolated positive equilibrium")
    if params.s_k == 0:
        raise StructurallyUnstable("s_k = 0: capital only decays to zero")


def equilibrium(params: ModelParams) -> tuple[float, float]:
    """The unique positive equilibrium (K0, E0) of the basic system.

    Solves the log-linear system
        alpha*lnE - (1-beta)*lnK = ln(delta_k/s_k)
        -(1-alpha)*lnE + beta*lnK = ln(delta_r/s_r)
    by Cramer's rule; its determinant is alpha + beta - 1.
    """
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    u = math.log(params.delta_k / params.s_k)
    v = math.log(params.delta_r / params.s_r)
    det = a + b - 1.0
    lnE, lnK = (b * u + (1.0 - b) * v) / det, ((1.0 - a) * u + a * v) / det
    if not all(abs(x) < LN_MAX for x in (lnK, lnE, a * lnE + b * lnK)):
        raise StructurallyUnstable("K0, E0 or Y0 outside the range of a double")
    return math.exp(lnK), math.exp(lnE)


def jacobian_basic(params: ModelParams) -> np.ndarray:
    """Linearization of the basic system at its equilibrium, state order (K, E)."""
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    return np.array([
        [(b - 1.0) * params.delta_k, a * (params.s_k / params.s_r) * params.delta_r],
        [b * (params.s_r / params.s_k) * params.delta_k, (a - 1.0) * params.delta_r],
    ])


def eigen_basic(params: ModelParams) -> tuple[float, float]:
    """The two real eigenvalues at the basic equilibrium, slowest first.

    Roots of lambda^2 - tr*lambda + det, with a = 1-alpha, b = 1-beta,
        tr = -(a*delta_r + b*delta_k),  det = (1-alpha-beta)*delta_r*delta_k;
    tr^2 - 4*det = (a*delta_r - b*delta_k)^2 + 4*alpha*beta*delta_r*delta_k
    is positive, so the equilibrium is a node or a saddle, never a focus.
    The slow root is det / fast (Vieta): (tr + sq) / 2 cancels when det is
    far below tr^2, as it is for alpha + beta near 1.
    """
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    dk, dr = params.delta_k, params.delta_r
    ar, bk = (1.0 - a) * dr, (1.0 - b) * dk
    fast = (-ar - bk - math.sqrt((ar - bk) ** 2 + 4.0 * a * b * dr * dk)) / 2.0
    return math.fsum((1.0, -a, -b)) * dr * dk / fast, fast


def classify(eigenvalues) -> Stability:
    """Stability class of one or more finite real eigenvalues; one within
    DEGENERACY_TOL of zero, relative to the largest |eigenvalue|, is zero."""
    eigs = require_series("eigenvalues", eigenvalues).tolist()
    if not all(map(math.isfinite, eigs)):
        raise ValidationError("eigenvalues", "must be finite")
    scale = max(abs(e) for e in eigs)
    if any(abs(e) <= DEGENERACY_TOL * scale for e in eigs):
        return Stability.DEGENERATE
    if all(e < 0 for e in eigs):
        return Stability.STABLE_NODE
    return Stability.SADDLE if any(e < 0 for e in eigs) else Stability.UNSTABLE


def equilibrium_report(params: ModelParams) -> EquilibriumReport:
    """Full 2-D report: equilibrium, output level, Jacobian, eigenvalues, class."""
    K0, E0 = equilibrium(params)
    Y0 = output(params, K0, E0)
    eigs = eigen_basic(params)
    return EquilibriumReport(
        K0=K0, E0=E0, Y0=Y0,
        jacobian=jacobian_basic(params),
        eigenvalues=eigs,
        classification=classify(eigs),
    )


def check_target(params: ModelParams, p: float) -> None:
    """Raise ValidationError unless 0 < p < 1 - s_k, so that s_r* > 0."""
    if not 0 < require_real("p", p) < 1 - params.s_k:
        raise ValidationError("p", f"need 0 < p < 1 - s_k, got p={p}")


def controlled_equilibrium(params: ModelParams, p: float) -> EquilibriumReport:
    """Equilibrium report for the consumption-controlled 3-D system.

    At equilibrium the education investment settles at s_r* = 1 - s_k - p.
    The 3x3 linearization is block-triangular: the top-left 2x2 block is the
    basic Jacobian at s_r*, and the third eigenvalue is -Y0.  s_r_floor only
    flags runs, so the report is the same under any floor.
    """
    check_target(params, p)
    base = equilibrium_report(
        replace(params, s_r=1.0 - params.s_k - p, s_r_floor=0.0))
    (j11, j12), (j21, j22) = base.jacobian.tolist()
    Y0, eigs = base.Y0, base.eigenvalues + (-base.Y0,)
    return EquilibriumReport(base.K0, base.E0, Y0, np.array(
        [[j11, j12, 0.0], [j21, j22, Y0], [0.0, 0.0, -Y0]]),
        eigs, classify(eigs))


def tipping_root(params: ModelParams, y_start: float) -> float:
    """The target p whose controlled equilibrium output Y0 equals y_start:
    the tipping point at an infinite horizon.

    With u = ln(delta_k/s_k) and v = ln(delta_r/s_r*), equilibrium's Cramer's
    rule gives ln Y0 = (beta*u + alpha*v)/(alpha + beta - 1); solve it for v,
    then s_r* = 1 - s_k - p.  A y_start no target in (0, 1 - s_k) reaches
    gives a p outside that interval; a y_start of 0 (an output that
    underflows) is one, taken as ln 0 = -inf.
    """
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    u = math.log(params.delta_k / params.s_k)
    ln_y = -math.inf if y_start == 0 else math.log(y_start)
    v = ((a + b - 1.0) * ln_y - b * u) / a
    return 1.0 - params.s_k - params.delta_r * math.exp(min(-v, LN_MAX))


def invariant_manifold(params: ModelParams) -> float | None:
    """Slope of the invariant line K = (s_k/s_r)*E, present iff delta_k = delta_r."""
    dk, dr = params.delta_k, params.delta_r
    if abs(dk - dr) <= DEGENERACY_TOL * max(dk, dr):  # relative, as classify
        return params.s_k / params.s_r
    return None
