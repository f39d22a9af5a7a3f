from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from capedu.analysis import (
    DEGENERACY_TOL,
    Stability,
    classify,
    controlled_equilibrium,
    eigen_basic,
    equilibrium,
    equilibrium_report,
    invariant_manifold,
    jacobian_basic,
)
from capedu.errors import StructurallyUnstable, ValidationError
from capedu.model import ModelParams, basic_rhs
from capedu.scenario_io import phase_portrait

from test_model import random_params


def residual(params, K0, E0):
    dK, dE = basic_rhs(params)(np.array([K0, E0]))
    return max(abs(dK) / K0, abs(dE) / E0)


class TestEquilibrium:
    def test_baseline_point(self, baseline_params):
        K0, E0 = equilibrium(baseline_params)
        assert K0 == pytest.approx(3.8055332, abs=1e-6)
        assert E0 == pytest.approx(0.5708300, abs=1e-6)
        assert residual(baseline_params, K0, E0) < 1e-10

    def test_output_with_slower_forgetting(self, baseline_params):
        from dataclasses import replace
        p = replace(baseline_params, delta_r=0.15)
        K0, E0 = equilibrium(p)
        Y0 = E0 ** p.alpha * K0 ** p.beta
        assert Y0 == pytest.approx(1.79, abs=0.01)

    def test_symmetric_parameters(self):
        p = ModelParams(s_k=0.3, s_r=0.3, delta_k=0.2, delta_r=0.2,
                        alpha=0.2, beta=0.35)
        K0, E0 = equilibrium(p)
        assert K0 == pytest.approx(E0, rel=1e-12)

    def test_structurally_unstable(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                        alpha=0.4, beta=0.6)
        with pytest.raises(StructurallyUnstable):
            equilibrium(p)

    def test_residual_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = random_params(rng)
            K0, E0 = equilibrium(p)
            assert residual(p, K0, E0) < 1e-10


class TestJacobian:
    def test_baseline_entries(self, baseline_params):
        jac = jacobian_basic(baseline_params)
        expected = np.array([[-0.0975, 0.2], [0.013125, -0.2]])
        assert np.allclose(jac, expected, atol=1e-12)

    def test_trace_and_determinant(self, baseline_params):
        jac = jacobian_basic(baseline_params)
        assert np.trace(jac) == pytest.approx(-0.2975, abs=1e-12)
        assert np.linalg.det(jac) == pytest.approx(0.016875, rel=1e-10)


class TestEigenvalues:
    def test_baseline_values(self, baseline_params):
        l1, l2 = eigen_basic(baseline_params)
        assert l1.real == pytest.approx(-0.0762823, abs=1e-6)
        assert l2.real == pytest.approx(-0.2212177, abs=1e-6)
        assert l1.imag == 0 and l2.imag == 0

    def test_identities_over_random_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = random_params(rng)
            l1, l2 = eigen_basic(p)
            tr = (p.alpha - 1) * p.delta_r + (p.beta - 1) * p.delta_k
            det = (1 - p.alpha - p.beta) * p.delta_r * p.delta_k
            assert (l1 + l2).real == pytest.approx(tr, rel=1e-12)
            assert (l1 * l2).real == pytest.approx(det, rel=1e-12)
            assert l1.real < 0 and l2.real < 0

    def test_one_positive_eigenvalue_when_superlinear(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                        alpha=0.6, beta=0.6)
        l1, l2 = eigen_basic(p)
        assert l1.real > 0 and l2.real < 0


class TestClassify:
    def test_cases(self):
        assert classify([-0.0763, -0.2212]) is Stability.STABLE_NODE
        assert classify([0.1, -0.2]) is Stability.SADDLE
        assert classify([0.1, 0.2]) is Stability.UNSTABLE
        assert classify([0.0, -0.2]) is Stability.DEGENERATE

    def test_degeneracy_is_relative_to_the_largest_rate(self):
        # a slow rate of 3.3e-13 beside a fast one of 0.3 was Degenerate
        # under an absolute tolerance of 1e-12
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=1.0, delta_r=1e-3,
                        alpha=0.3, beta=0.6999999999)
        l1, l2 = eigen_basic(p)
        assert -1e-12 < l1 < 0
        assert classify([l1, l2]) is Stability.STABLE_NODE
        assert classify([1e-13 * l2, l2]) is Stability.DEGENERATE
        assert classify([1e-13, 1e-14]) is Stability.UNSTABLE
        assert classify([0.0, 0.0]) is Stability.DEGENERATE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify([])


class TestReport:
    def test_baseline_report(self, baseline_params):
        rep = equilibrium_report(baseline_params)
        assert rep.Y0 == pytest.approx(1.4270750, abs=1e-6)
        assert rep.classification is Stability.STABLE_NODE
        assert rep.jacobian.shape == (2, 2)
        assert len(rep.eigenvalues) == 2


class TestControlledEquilibrium:
    @pytest.mark.parametrize("p_target,s_r_star,Y0", [
        (0.40, 0.20, 1.94195),
        (0.47, 0.13, 1.60357),
        (0.55, 0.05, 1.04871),
    ])
    def test_target_outcomes(self, baseline_params, p_target, s_r_star, Y0):
        rep = controlled_equilibrium(baseline_params, p_target)
        assert rep.Y0 == pytest.approx(Y0, abs=1e-5)
        assert rep.jacobian.shape == (3, 3)
        assert rep.eigenvalues[2].real == pytest.approx(-Y0, abs=1e-5)
        assert rep.classification is Stability.STABLE_NODE

    def test_block_triangular_structure(self, baseline_params):
        from dataclasses import replace
        rep = controlled_equilibrium(baseline_params, 0.47)
        at_star = replace(baseline_params, s_r=0.13)
        l1, l2 = eigen_basic(at_star)
        assert rep.eigenvalues[0] == l1
        assert rep.eigenvalues[1] == l2
        assert rep.eigenvalues[2] == complex(-rep.Y0)
        # numeric eigenvalues of the full 3x3 agree
        numeric = sorted(np.linalg.eigvals(rep.jacobian).real)
        analytic = sorted(e.real for e in rep.eigenvalues)
        assert np.allclose(numeric, analytic, rtol=1e-10)

    def test_invalid_target(self, baseline_params):
        with pytest.raises(ValidationError) as exc:
            controlled_equilibrium(baseline_params, 0.6)
        assert exc.value.field == "p"

    def test_floor_conflict_is_validation_error(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                        alpha=0.2, beta=0.35, s_r_floor=0.1)
        with pytest.raises(ValidationError):
            controlled_equilibrium(p, 0.55)  # s_r* = 0.05 below the floor


class TestInvariantManifold:
    def test_present_when_decay_rates_match(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.2, delta_r=0.2,
                        alpha=0.2, beta=0.35)
        assert invariant_manifold(p) == 4.0

    def test_absent_otherwise(self, baseline_params):
        assert invariant_manifold(baseline_params) is None

    def test_symmetric_unity(self):
        p = ModelParams(s_k=0.2, s_r=0.2, delta_k=0.3, delta_r=0.3,
                        alpha=0.2, beta=0.35)
        assert invariant_manifold(p) == 1.0


decay_rates = st.floats(1e-6, 1e3)


@st.composite
def any_params(draw):
    """Parameters on both sides of alpha + beta = 1, often with equal decay
    rates, where a discriminant written as tr^2 - 4*det cancels."""
    alpha = draw(st.floats(1e-12, 0.999))
    beta = draw(st.floats(1e-12, 0.999))
    assume(abs(alpha + beta - 1.0) >= DEGENERACY_TOL)
    delta_k = draw(decay_rates)
    delta_r = delta_k if draw(st.booleans()) else draw(decay_rates)
    return ModelParams(s_k=0.4, s_r=0.1, delta_k=delta_k, delta_r=delta_r,
                       alpha=alpha, beta=beta)


class TestEigenvaluesAreReal:
    # with equal decay rates 0.15 and alpha = beta = 5e-9, tr^2 - 4*det
    # cancels to a negative number, which read as a focus
    @example(ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.15,
                         alpha=5e-9, beta=5e-9))
    @given(params=any_params())
    def test_two_real_roots_of_the_characteristic_polynomial(self, params):
        l1, l2 = eigen_basic(params)
        assert type(l1) is float and type(l2) is float
        assert l1 > l2
        # the exact trace and determinant of the drawn (binary) parameters
        a, b = Fraction(params.alpha), Fraction(params.beta)
        dk, dr = Fraction(params.delta_k), Fraction(params.delta_r)
        tr = (a - 1) * dr + (b - 1) * dk
        det = (1 - a - b) * dr * dk
        assert abs(Fraction(l1) + Fraction(l2) - tr) <= 1e-12 * abs(tr)
        # a saddle's roots are as large as sqrt(tr^2 + 4|det|), not |tr|:
        # alpha = beta = 0.999 leaves 1.2e-10 * tr^2 of rounding in l1*l2
        assert abs(Fraction(l1) * Fraction(l2) - det) <= \
            1e-12 * (tr * tr + 4 * abs(det))
        if min(abs(l1), abs(l2)) <= DEGENERACY_TOL * max(abs(l1), abs(l2)):
            expected = Stability.DEGENERATE  # classify's relative rule
        elif params.alpha + params.beta < 1:
            expected = Stability.STABLE_NODE
        else:
            expected = Stability.SADDLE
        assert classify([l1, l2]) is expected


# no positive equilibrium a double can hold: s_k = 0 leaves only decay of
# capital, and alpha + beta near 1 drives ln K0 = (...) / (alpha + beta - 1)
# below the smallest double (K0 = E0 = Y0 = 0 at delta = 0.9) or above the
# largest (K0 = inf at delta = 0.01)
NO_EQUILIBRIUM = {
    "s_k = 0": (dict(s_k=0.0), "s_k = 0: capital only decays to zero"),
    "underflow": (dict(alpha=0.5, beta=0.4999, delta_k=0.9, delta_r=0.9),
                  "K0, E0 or Y0 outside the range of a double"),
    "overflow": (dict(alpha=0.5, beta=0.4999, delta_k=0.01, delta_r=0.01),
                 "K0, E0 or Y0 outside the range of a double"),
}


@pytest.mark.parametrize("name", list(NO_EQUILIBRIUM))
class TestNoEquilibriumADoubleHolds:
    def test_closed_forms_refuse(self, baseline_params, name):
        changes, message = NO_EQUILIBRIUM[name]
        calls = [equilibrium, equilibrium_report,
                 lambda q: controlled_equilibrium(q, 0.5)]
        if name == "s_k = 0":  # the Jacobian divides by s_k
            calls += [jacobian_basic, eigen_basic]
        for call in calls:
            with pytest.raises(StructurallyUnstable) as exc:
                call(replace(baseline_params, **changes))
            assert str(exc.value) == message

    def test_phase_portrait_has_no_equilibrium(self, baseline_params, name):
        params = replace(baseline_params, **NO_EQUILIBRIUM[name][0])
        portrait = phase_portrait(params, (1, 2), (0.5, 1), (2, 2),
                                  horizon=5.0)
        assert portrait.equilibrium is None
        assert portrait.field_samples.shape == (4, 4)
        assert len(portrait.trajectories) == 4


@st.composite
def near_unit_sum(draw):
    """Parameters with alpha + beta within 10^-12 to 10^-1 of 1, on either
    side, where the slow eigenvalue is far below the fast one."""
    alpha = draw(st.floats(1e-3, 0.999))
    gap = 10.0 ** draw(st.floats(-12.0, -1.0)) * draw(st.sampled_from([-1, 1]))
    beta = 1.0 - alpha + gap
    assume(0.0 < beta < 1.0 and abs(alpha + beta - 1.0) >= DEGENERACY_TOL)
    delta_k = draw(decay_rates)
    delta_r = delta_k if draw(st.booleans()) else draw(decay_rates)
    return ModelParams(s_k=0.4, s_r=0.1, delta_k=delta_k, delta_r=delta_r,
                       alpha=alpha, beta=beta)


@example(ModelParams(s_k=0.4, s_r=0.1, delta_k=1.0, delta_r=1.0, alpha=0.5,
                     beta=0.499999999))  # (tr + sq) / 2 was off by 5.6e-8
@example(ModelParams(s_k=0.4, s_r=0.1, delta_k=1.0, delta_r=1e-3, alpha=0.3,
                     beta=0.6999999999))  # 1 - alpha - beta rounds to 8e-7
@given(params=st.one_of(any_params(), near_unit_sum()))
def test_eigenvalues_match_50_digit_arithmetic(params):
    mpmath = pytest.importorskip("mpmath")
    l1, l2 = eigen_basic(params)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
        dk, dr = mpmath.mpf(params.delta_k), mpmath.mpf(params.delta_r)
        tr = (a - 1) * dr + (b - 1) * dk
        sq = mpmath.sqrt(tr * tr - 4 * (1 - a - b) * dr * dk)
        for got, exact in ((l1, (tr + sq) / 2), (l2, (tr - sq) / 2)):
            assert abs(got - exact) <= 1e-14 * abs(exact)
