"""Closed-form equilibria, Jacobians, eigenvalues and stability classes.

Everything here is exact linear algebra: the positive equilibrium solves a
2x2 linear system in (ln E, ln K) whose determinant is alpha + beta - 1,
eigenvalues come from the quadratic characteristic polynomial, and the 3-D
controlled system is block-triangular so its third eigenvalue is just -Y0.
No iterative solver or general eigensolver is involved, which makes these
results an independent oracle for the simulations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import StructurallyUnstable, ValidationError
from .model import ModelParams, output

__all__ = [
    "Stability", "EquilibriumReport", "check_target",
    "equilibrium", "jacobian_basic", "eigen_basic", "classify",
    "equilibrium_report", "controlled_equilibrium", "invariant_manifold",
]

DEGENERACY_TOL = 1e-12


class Stability(enum.Enum):
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"
    SADDLE = "Saddle"
    UNSTABLE = "Unstable"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class EquilibriumReport:
    K0: float
    E0: float
    Y0: float
    jacobian: np.ndarray          # 2x2 (basic) or 3x3 (controlled)
    eigenvalues: tuple[complex, ...]
    classification: Stability


def _check_nondegenerate(params: ModelParams):
    if abs(params.alpha + params.beta - 1.0) < DEGENERACY_TOL:
        raise StructurallyUnstable(
            "alpha + beta = 1: no isolated positive equilibrium")


def equilibrium(params: ModelParams) -> tuple[float, float]:
    """The unique positive equilibrium (K0, E0) of the basic system.

    Solves the log-linear system
        alpha*lnE - (1-beta)*lnK = ln(delta_k/s_k)
        -(1-alpha)*lnE + beta*lnK = ln(delta_r/s_r)
    whose determinant is alpha + beta - 1.
    """
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    mat = np.array([[a, -(1.0 - b)], [-(1.0 - a), b]])
    rhs = np.array([np.log(params.delta_k / params.s_k),
                    np.log(params.delta_r / params.s_r)])
    lnE, lnK = np.linalg.solve(mat, rhs)
    return float(np.exp(lnK)), float(np.exp(lnE))


def jacobian_basic(params: ModelParams) -> np.ndarray:
    """Linearization of the basic system at its equilibrium, state order (K, E)."""
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    return np.array([
        [(b - 1.0) * params.delta_k, a * (params.s_k / params.s_r) * params.delta_r],
        [b * (params.s_r / params.s_k) * params.delta_k, (a - 1.0) * params.delta_r],
    ])


def eigen_basic(params: ModelParams) -> tuple[complex, complex]:
    """Eigenvalues at the basic equilibrium, ordered by descending real part.

    Roots of lambda^2 - tr*lambda + det with
        tr  = (alpha-1)*delta_r + (beta-1)*delta_k
        det = (1-alpha-beta)*delta_r*delta_k
    """
    _check_nondegenerate(params)
    a, b = params.alpha, params.beta
    tr = (a - 1.0) * params.delta_r + (b - 1.0) * params.delta_k
    det = (1.0 - a - b) * params.delta_r * params.delta_k
    disc = tr * tr - 4.0 * det
    sq = np.sqrt(complex(disc))
    l1, l2 = (tr + sq) / 2.0, (tr - sq) / 2.0
    if l1.real < l2.real:
        l1, l2 = l2, l1
    return complex(l1), complex(l2)


def classify(eigenvalues) -> Stability:
    """Stability class from a nonempty list of eigenvalues."""
    eigs = [complex(e) for e in eigenvalues]
    if not eigs:
        raise ValueError("need at least one eigenvalue")
    if any(abs(e) < DEGENERACY_TOL for e in eigs):
        return Stability.DEGENERATE
    all_real = all(abs(e.imag) < DEGENERACY_TOL for e in eigs)
    if all_real:
        if all(e.real < 0 for e in eigs):
            return Stability.STABLE_NODE
        if any(e.real > 0 for e in eigs) and any(e.real < 0 for e in eigs):
            return Stability.SADDLE
        return Stability.UNSTABLE
    if all(e.real < 0 for e in eigs):
        return Stability.STABLE_FOCUS
    return Stability.UNSTABLE


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
    if not 0 < p < 1 - params.s_k:
        raise ValidationError("p", f"need 0 < p < 1 - s_k, got p={p}")


def controlled_equilibrium(params: ModelParams, p: float) -> EquilibriumReport:
    """Equilibrium report for the consumption-controlled 3-D system.

    At equilibrium the education investment settles at s_r* = 1 - s_k - p.
    The 3x3 linearization is block-triangular: the top-left 2x2 block is the
    basic Jacobian at s_r*, and the third eigenvalue is -Y0.
    """
    check_target(params, p)
    base = equilibrium_report(replace(params, s_r=1.0 - params.s_k - p))
    jac3 = np.pad(base.jacobian, ((0, 1), (0, 1)))
    jac3[1, 2] = base.Y0
    jac3[2, 2] = -base.Y0
    eigs = base.eigenvalues + (complex(-base.Y0),)
    return replace(base, jacobian=jac3, eigenvalues=eigs,
                   classification=classify(eigs))


def invariant_manifold(params: ModelParams) -> float | None:
    """Slope of the invariant line K = (s_k/s_r)*E, present iff delta_k = delta_r."""
    if abs(params.delta_k - params.delta_r) < DEGENERACY_TOL:
        return params.s_k / params.s_r
    return None
