import math

import numpy as np
import pytest

from capedu.errors import DomainError, ValidationError
from capedu.model import (
    EconState,
    ModelParams,
    basic_rhs,
    control_rhs,
    modulated_rhs,
    ne9_rhs,
    output,
)


def random_params(rng):
    while True:
        alpha = rng.uniform(0.05, 0.9)
        beta = rng.uniform(0.05, 0.9)
        s_k = rng.uniform(0.05, 0.7)
        s_r = rng.uniform(0.02, 1.0 - s_k)
        if alpha + beta < 0.98:
            return ModelParams(s_k=s_k, s_r=s_r,
                               delta_k=rng.uniform(0.05, 0.5),
                               delta_r=rng.uniform(0.05, 0.5),
                               alpha=alpha, beta=beta)


class TestModelParams:
    def test_valid(self, baseline_params):
        assert baseline_params.s_k + baseline_params.s_r <= 1

    @pytest.mark.parametrize("field,kwargs", [
        ("s_k", dict(s_k=1.2)),
        ("s_r", dict(s_r=0.0)),
        ("s_k", dict(s_k=0.7, s_r=0.4)),
        ("delta_k", dict(delta_k=0.0)),
        ("delta_r", dict(delta_r=-0.1)),
        ("alpha", dict(alpha=1.0)),
        ("beta", dict(beta=0.0)),
        ("s_r", dict(s_r=0.05, s_r_floor=0.1)),
        ("s_r_floor", dict(s_r_floor=-5.0)),
        ("s_r_floor", dict(s_r_floor=math.nan)),
    ])
    def test_invalid(self, field, kwargs):
        base = dict(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                    alpha=0.2, beta=0.35)
        base.update(kwargs)
        with pytest.raises(ValidationError) as exc:
            ModelParams(**base)
        assert exc.value.field == field

    def test_s_r_above_one_names_its_bound(self):
        # with s_k = 0 the sum rule s_k + s_r <= 1 cannot catch it first
        with pytest.raises(ValidationError) as exc:
            ModelParams(s_k=0.0, s_r=1.5, delta_k=0.15, delta_r=0.25,
                        alpha=0.2, beta=0.35)
        assert str(exc.value) == "s_r: must be at most 1"


class TestProduction:
    def test_unit_inputs(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                        alpha=0.2, beta=0.35)
        assert output(p, 1.0, 1.0) == 1.0

    def test_start_value(self, baseline_params):
        assert output(baseline_params, 4.0, 1.0) == \
            pytest.approx(1.6245048, abs=1e-6)

    def test_equilibrium_output(self, baseline_params):
        y = output(baseline_params, 3.8054, 0.5708)
        assert y == pytest.approx(1.4271, abs=1e-3)

    def test_domain_guard(self, baseline_params):
        with pytest.raises(ValidationError) as exc:
            EconState(-1.0, 1.0)
        assert exc.value.field == "K"
        with pytest.raises(ValidationError) as exc:
            EconState(1.0, 0.0)
        assert exc.value.field == "E"

    def test_scaling_in_education(self, baseline_params):
        # multiplying E by lam**(1/alpha) multiplies output by lam
        rng = np.random.default_rng(7)
        p = baseline_params
        for _ in range(200):
            K, E = rng.uniform(0.1, 10.0, size=2)
            lam = rng.uniform(0.2, 5.0)
            scaled = output(p, K, E * lam ** (1 / p.alpha))
            assert scaled == pytest.approx(lam * output(p, K, E), rel=1e-12)


class TestBasicField:
    def test_unit_state(self, baseline_params):
        dK, dE = basic_rhs(baseline_params)(np.array([1.0, 1.0]))
        assert dK == pytest.approx(0.25, abs=1e-12)
        assert dE == pytest.approx(-0.15, abs=1e-12)

    def test_equilibrium_residual(self, baseline_params):
        dK, dE = basic_rhs(baseline_params)(np.array([3.8054, 0.5708]))
        assert abs(dK) < 1e-4 and abs(dE) < 1e-4

    def test_tangent_to_invariant_line(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.2, delta_r=0.2,
                        alpha=0.2, beta=0.35)
        rhs = basic_rhs(p)
        rng = np.random.default_rng(3)
        for _ in range(50):
            E = rng.uniform(0.1, 5.0)
            dK, dE = rhs(np.array([4.0 * E, E]))
            # the flow keeps K = 4E: dK must equal 4*dE on the line
            assert dK == pytest.approx(4.0 * dE, rel=1e-12)

    def test_domain_guard(self, baseline_params):
        with pytest.raises(DomainError):
            basic_rhs(baseline_params)(np.array([1.0, 0.0]))


class TestNe9Field:
    def test_hand_value(self):
        assert tuple(ne9_rhs(0.55)(np.array([0.5, 0.0, 0.0]))) == \
            pytest.approx((0.0, -0.5, 1.2))

    def test_origin_fixed_point_without_dissipation(self):
        assert np.array_equal(ne9_rhs(0.0)(np.zeros(3)), np.zeros(3))


class TestModulatedField:
    def test_zero_modulation_matches_basic(self, baseline_params):
        full_rhs = modulated_rhs(baseline_params, 0.0)
        econ_rhs = basic_rhs(baseline_params)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            K, E = rng.uniform(0.1, 10.0, size=2)
            x, y, z = rng.normal(size=3)
            full = full_rhs(np.array([K, E, x, y, z]))
            assert np.array_equal(full[:2], econ_rhs(np.array([K, E])))

    def test_hand_value(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.15,
                        alpha=0.2, beta=0.35)
        full = modulated_rhs(p, 0.5)(np.array([1.0, 1.0, 0.5, 0.0, 0.0]))
        assert full[0] == pytest.approx(0.5, abs=1e-12)

    def test_chaos_block_is_driver(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                        alpha=0.2, beta=0.35)
        state = np.array([2.0, 1.0, 0.3, -0.2, 0.7])
        full = modulated_rhs(p, 0.5, b=0.55)(state)
        assert np.array_equal(full[2:], ne9_rhs(0.55)(state[2:]))


class TestControlField:
    def test_equilibrium_of_control_variable(self, baseline_params):
        p_target = 0.47
        s_r = 1.0 - baseline_params.s_k - p_target
        d = control_rhs(baseline_params, p_target)(np.array([2.0, 3.0, s_r]))
        assert d[2] == 0.0

    def test_hand_values(self, baseline_params):
        state = np.array([4.0, 1.0, 0.1])
        d = control_rhs(baseline_params, 0.47)(state)
        assert d[2] == pytest.approx(0.048735, abs=1e-5)
        d = control_rhs(baseline_params, 0.55)(state)
        assert d[2] == pytest.approx(-0.081225, abs=1e-5)

    def test_econ_block_matches_basic_with_current_s_r(self):
        from dataclasses import replace
        rng = np.random.default_rng(13)
        base = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                           alpha=0.2, beta=0.35)
        rhs = control_rhs(base, 0.4)
        for _ in range(1000):
            K, E = rng.uniform(0.1, 10.0, size=2)
            s_r = rng.uniform(0.01, 0.5)
            d = rhs(np.array([K, E, s_r]))
            ref = basic_rhs(replace(base, s_r=s_r))(np.array([K, E]))
            assert d[0] == pytest.approx(ref[0], rel=1e-14)
            assert d[1] == pytest.approx(ref[1], rel=1e-14)
