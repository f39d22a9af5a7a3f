import math

import numpy as np
import pytest

from capedu.control import find_tipping, long_run_outcome, simulate_controlled
from capedu.errors import NoSignChange, ValidationError
from capedu.model import EconState, ModelParams, production


class TestSimulateControlled:
    @pytest.mark.parametrize("p_target,y_final", [
        (0.40, 1.9420),
        (0.55, 1.0490),
    ])
    def test_converges_to_analytic_equilibrium(self, baseline_params,
                                               start_4_1, p_target, y_final):
        traj = simulate_controlled(baseline_params, p_target, start_4_1,
                                   0.1, 200.0, sample_step=0.5)
        assert traj["Y"][-1] == pytest.approx(y_final, abs=0.02)
        s_r_star = 1.0 - baseline_params.s_k - p_target
        assert abs(traj["s_r"][-1] - s_r_star) < 1e-3

    def test_near_tipping_output_stays_flat(self, baseline_params, start_4_1):
        traj = simulate_controlled(baseline_params, 0.47, start_4_1,
                                   0.1, 200.0, sample_step=0.5)
        y0 = production(baseline_params, start_4_1)
        assert np.max(np.abs(traj["Y"] - 1.6245) / 1.6245) < 0.02
        assert y0 == pytest.approx(1.6245, abs=1e-3)

    def test_high_target_decreases_output(self, baseline_params, start_4_1):
        traj = simulate_controlled(baseline_params, 0.55, start_4_1,
                                   0.1, 200.0, sample_step=0.5)
        assert traj["Y"][-1] < traj["Y"][0]

    def test_constraint_violation_flag(self, start_4_1):
        # a floor above the control's resting point forces a flagged breach
        params = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                             alpha=0.2, beta=0.35, s_r_floor=0.08)
        traj = simulate_controlled(params, 0.55, start_4_1, 0.1, 200.0,
                                   sample_step=0.5)
        assert traj.constraint_violation  # s_r -> 0.05 < floor
        assert np.min(traj["s_r"]) < 0.08

    def test_input_checks(self, baseline_params, start_4_1):
        with pytest.raises(ValidationError):
            simulate_controlled(baseline_params, 0.7, start_4_1, 0.1, 10.0)
        with pytest.raises(ValidationError):
            simulate_controlled(baseline_params, 0.4, start_4_1, -0.1, 10.0)

    def test_conservation_per_row(self, baseline_params, start_4_1):
        traj = simulate_controlled(baseline_params, 0.47, start_4_1,
                                   0.1, 50.0, sample_step=0.5)
        total = traj["C"] + traj["I_k"] + traj["I_r"]
        assert np.max(np.abs(total - traj["Y"]) / traj["Y"]) < 1e-12


class TestFindTipping:
    def test_locates_tipping_target(self, baseline_params, start_4_1):
        result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                              0.40, 0.55, tol=1e-3)
        assert result.p_star == pytest.approx(0.466, abs=0.005)
        assert result.bracket[0] < result.p_star < result.bracket[1]
        g_lo, g_hi = result.growth_at_bracket
        assert g_lo * g_hi < 0
        assert result.horizon_used == 200.0

    def test_no_sign_change_when_both_grow(self, baseline_params, start_4_1):
        with pytest.raises(NoSignChange):
            find_tipping(baseline_params, start_4_1, 0.1, 200.0, 0.40, 0.42)

    def test_degenerate_bracket(self, baseline_params, start_4_1):
        with pytest.raises(NoSignChange):
            find_tipping(baseline_params, start_4_1, 0.1, 200.0, 0.47, 0.47)

    @pytest.mark.parametrize("p_low,p_high,bad", [
        (math.nan, 0.55, "nan"), (0.40, math.nan, "nan"),
        (0.0, 0.55, "0.0"), (0.40, 0.6, "0.6"), (0.5, 0.7, "0.7")])
    def test_bracket_ends_must_be_targets(self, baseline_params, start_4_1,
                                          p_low, p_high, bad):
        # checked before the bracket: an empty one with a bad end is bad input
        with pytest.raises(ValidationError) as info:
            find_tipping(baseline_params, start_4_1, 0.1, 200.0, p_low,
                         p_high)
        assert str(info.value) == f"p: need 0 < p < 1 - s_k, got p={bad}"

    def test_horizon_and_tol_are_checked_before_the_ends(self, baseline_params,
                                                         start_4_1):
        for horizon, tol, field in ((-1.0, 1e-3, "horizon"),
                                    (200.0, math.nan, "tol")):
            with pytest.raises(ValidationError) as info:
                find_tipping(baseline_params, start_4_1, 0.1, horizon,
                             math.nan, 0.55, tol)
            assert info.value.field == field


class TestLongRunOutcome:
    @pytest.mark.parametrize("p_target,expected", [
        (0.40, (1.94195, 0.77678)),
        (0.47, (1.60357, 0.75368)),
        (0.55, (1.04871, 0.57679)),
    ])
    def test_analytic_outcomes(self, baseline_params, p_target, expected):
        Y, C = long_run_outcome(baseline_params, p_target)
        assert Y == pytest.approx(expected[0], abs=1e-5)
        assert C == pytest.approx(expected[1], abs=1e-5)
        assert C == pytest.approx(p_target * Y, rel=1e-14)

    def test_output_decreasing_in_target(self, baseline_params):
        grid = np.linspace(0.05, 0.55, 26)
        outputs = [long_run_outcome(baseline_params, p)[0] for p in grid]
        assert np.all(np.diff(outputs) < 0)

    def test_consumption_non_monotone(self, baseline_params):
        c47 = long_run_outcome(baseline_params, 0.47)[1]
        c55 = long_run_outcome(baseline_params, 0.55)[1]
        assert c47 > c55
