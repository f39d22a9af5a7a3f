import contextlib
import math
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capedu import cli, control
from capedu.analysis import controlled_equilibrium, tipping_root
from capedu.control import find_tipping, horizon_output, simulate_controlled
from capedu.errors import (
    NoSignChange, StepLimitExceeded, StructurallyUnstable, ValidationError,
)
from capedu.model import EconState, ModelParams, output

from test_oracles import closed_form_tipping_root

CONTROLLED = str(Path(__file__).resolve().parent.parent / "scenarios"
                 / "controlled_p047.json")


@contextlib.contextmanager
def counted_runs(limit: int):
    """Count the controlled runs made through the module attribute
    horizon_output, one per growth the search takes; the run after limit
    fails instead of hanging."""
    runs = []
    real = control.horizon_output

    def counting(*args, **kwargs):
        runs.append(args[1])
        assert len(runs) <= limit, f"more than {limit} runs"
        return real(*args, **kwargs)

    with mock.patch.object(control, "horizon_output", counting):
        yield runs


def bisection_runs(width: float, tol: float) -> int:
    """Bisection's worst case: one run per end, then one per halving."""
    return 2 + max(0, math.ceil(math.log2(width / tol)))


@st.composite
def tipping_draws(draw):
    """Parameters, start and a bracket 0.15 wide around the closed-form root,
    drawn as the benchmark draws its tipping searches.  The benchmark redraws
    until T = 200 converges at both ends and at the root (|Re| of the slowest
    eigenvalue times T at least 20); here T grows until it does."""
    params = ModelParams(
        s_k=draw(st.floats(0.25, 0.45)), s_r=draw(st.floats(0.08, 0.2)),
        delta_k=draw(st.floats(0.12, 0.3)), delta_r=draw(st.floats(0.12, 0.3)),
        alpha=draw(st.floats(0.15, 0.3)), beta=draw(st.floats(0.25, 0.4)))
    start = EconState(draw(st.floats(1.0, 5.0)), draw(st.floats(0.5, 2.0)))
    root = closed_form_tipping_root(params, output(params, start.K, start.E))
    # lo = root - 0.15 u with u in [0.2, 0.8], 0.2 <= lo, hi <= 0.97 - s_k
    u_min = max(0.2, 1.0 - (0.97 - params.s_k - root) / 0.15)
    u_max = min(0.8, (root - 0.2) / 0.15)
    assume(u_min <= u_max)
    lo = root - 0.15 * draw(st.floats(u_min, u_max))
    hi = lo + 0.15
    rate = min(-max(e.real for e in controlled_equilibrium(params, q)
                    .eigenvalues) for q in (lo, root, hi))
    return params, start, max(200.0, 20.0 / rate), lo, hi


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
        y0 = output(baseline_params, start_4_1.K, start_4_1.E)
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

    def test_crit_6_search_makes_two_runs(self, baseline_params, start_4_1):
        # the pair around the closed-form root holds the root, so the ends
        # never run; ITP made 6 and bisection 2 + ceil(log2(150)) = 10
        with counted_runs(2) as runs:
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=1e-3)
        assert len(runs) == 2
        assert result.bracket[1] - result.bracket[0] <= 1e-3

    def test_crit_6_pair_steps(self, baseline_params, start_4_1):
        # each run integrates (K, E, Q), which has no fast -Y mode: 59 steps
        # each, where the (K, E, s_r) runs to the horizon take 84 and 147
        steps, real = [], control.integrate

        def recording(*args, **kwargs):
            raw = real(*args, **kwargs)
            steps.append(raw.stats.steps)
            return raw

        with mock.patch.object(control, "integrate", recording), \
                counted_runs(2) as runs:
            find_tipping(baseline_params, start_4_1, 0.1, 200.0, 0.40, 0.55,
                         tol=1e-3)
        assert steps == [59, 59]
        assert [simulate_controlled(baseline_params, p, start_4_1, 0.1, 200.0,
                                    sample_step=200.0).stats.steps
                for p in runs] == [84, 147]

    def test_saddle_far_from_p_inf_fails_fast(self, baseline_params,
                                              start_4_1):
        # alpha + beta > 1: a run far from p_inf grows without bound, and
        # its step shrinks until it no longer moves t, long before the
        # state leaves the doubles; in (K, E, s_r) the fast -Y mode shrank
        # h until the step budget ran out, about a minute later
        params = replace(baseline_params, alpha=0.6, beta=0.6)
        wall = time.perf_counter()
        with pytest.raises(StepLimitExceeded, match=(
                r"^step size 8\.82103e-16 no longer moves t \(from "
                r"t=11\.3803 with h=8\.82103e-16, y=\[3\.24707e\+71, ")):
            find_tipping(params, start_4_1, 0.1, 200.0, 0.05, 0.55)
        assert time.perf_counter() - wall < 5.0

    def test_seed_pair_is_the_bracket(self, baseline_params, start_4_1):
        p_inf = tipping_root(baseline_params,
                             output(baseline_params, start_4_1.K, start_4_1.E))
        # p_inf +- tol/2 rounds to a pair wider than tol, which would cost
        # a third run; the search steps its upper end down
        assert (p_inf + 0.5e-3) - (p_inf - 0.5e-3) > 1e-3
        with counted_runs(2) as runs:
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=1e-3)
        lo, hi = result.bracket
        assert runs == [lo, hi]
        assert lo == p_inf - 0.5e-3 and hi - lo <= 1e-3
        assert math.nextafter(hi, math.inf) - lo > 1e-3
        assert result.p_star == 0.5 * (lo + hi)

    def test_seed_pair_settles_a_wide_tol(self, baseline_params, start_4_1):
        # at tol 0.05 ITP needs 2 interior runs, 4 in all: [0.4, 0.55,
        # 0.475, 0.45] with the bracket (0.45, 0.475); the pair takes 2
        with counted_runs(2) as runs:
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=0.05)
        bracket = (0.44115043307000024, 0.4911504330700002)
        assert runs == list(bracket) and result.bracket == bracket
        assert result.p_star == 0.5 * (bracket[0] + bracket[1])

    # where a gate on p_inf's distance from the root kept the pair from
    # running, the ends and ITP made 6, 6 and 8 runs; the pair and a secant
    # pair make 4 at T = 20, and the pair alone 2 at T = 50 and at tol 1e-6
    @pytest.mark.parametrize("horizon,tol,runs,bracket", [
        (20.0, 1e-3, [0.46565043307000026, 0.4666504330700002,
                      0.4639752453322833, 0.46497524533228324],
         (0.4639752453322833, 0.46497524533228324)),
        (50.0, 1e-3, [0.46565043307000026, 0.4666504330700002],
         (0.46565043307000026, 0.4666504330700002)),
        (200.0, 1e-6, [0.46614993307000024, 0.4661509330700002],
         (0.46614993307000024, 0.4661509330700002)),
    ])
    def test_closed_gate_makes_the_unseeded_runs(self, baseline_params,
                                                 start_4_1, horizon, tol,
                                                 runs, bracket):
        with counted_runs(len(runs)) as made:
            result = find_tipping(baseline_params, start_4_1, 0.1, horizon,
                                  0.40, 0.55, tol=tol)
        assert made == runs
        assert result.bracket == bracket
        assert result.p_star == 0.5 * (bracket[0] + bracket[1])

    @settings(max_examples=30, deadline=None)
    @given(draws=tipping_draws(), tol=st.floats(1e-3, 0.1))
    def test_seed_pair_returns_only_where_the_ends_change_sign(self, draws,
                                                              tol):
        # a search that ends after the pair's 2 runs never ran its ends;
        # the search that runs them first would have found the same root
        optimize = pytest.importorskip("scipy.optimize")
        params, start, horizon, p_low, p_high = draws
        with counted_runs(bisection_runs(p_high - p_low, tol) + 2) as runs:
            result = find_tipping(params, start, 0.1, horizon, p_low, p_high,
                                  tol=tol)
        assume(len(runs) == 2)
        y_start = output(params, start.K, start.E)

        def growth(p):
            return horizon_output(params, p, start, 0.1, horizon) - y_start

        assert growth(p_low) * growth(p_high) < 0
        root = optimize.brentq(growth, p_low, p_high, xtol=1e-15)
        lo, hi = result.bracket
        assert p_low < lo <= root <= hi < p_high

    @settings(max_examples=30, deadline=None)
    @given(draws=tipping_draws(), horizon=st.integers(20, 300).map(float),
           tol=st.sampled_from([1e-3, 1e-6]))
    def test_pairs_hold_the_root_within_bisections_runs(self, draws, horizon,
                                                        tol):
        # at a short horizon the root lies further from the closed-form one,
        # and secant pairs or the ends must find it; no search may make more
        # runs than bisection
        optimize = pytest.importorskip("scipy.optimize")
        params, start, _, p_low, p_high = draws
        y_start = output(params, start.K, start.E)

        def growth(p):
            return horizon_output(params, p, start, 0.1, horizon) - y_start

        assume(growth(p_low) * growth(p_high) < 0)
        with counted_runs(bisection_runs(p_high - p_low, tol)):
            result = find_tipping(params, start, 0.1, horizon, p_low, p_high,
                                  tol=tol)
        root = optimize.brentq(growth, p_low, p_high, xtol=1e-15)
        lo, hi = result.bracket
        assert p_low <= lo <= root <= hi <= p_high and hi - lo <= tol

    def test_zero_growth_at_the_low_end_returns_it(self, baseline_params,
                                                   start_4_1):
        # a run whose output at the horizon is exactly Y(0) at p_low
        y_start = output(baseline_params, start_4_1.K, start_4_1.E)

        def flat_at_low_end(params, p, *args, **kwargs):
            return y_start if p == 0.40 else 0.5 * y_start

        # the pair's equal growths have no secant root, so the ends run next
        x1, x2 = find_tipping(baseline_params, start_4_1, 0.1, 200.0, 0.40,
                              0.55, tol=1e-3).bracket
        with mock.patch.object(control, "horizon_output",
                               flat_at_low_end), counted_runs(4) as runs:
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=1e-3)
        assert runs == [x1, x2, 0.40, 0.55]
        assert result.p_star == 0.40 and result.bracket == (0.40, 0.55)
        assert result.growth_at_bracket == (0.0, -0.5 * y_start)

    def test_zero_growth_inside_the_bracket_returns_it(self, baseline_params,
                                                       start_4_1):
        # with no closed-form root no pair runs; ITP's first run lands on
        # the bracket's midpoint, where the output at the horizon is Y(0)
        y_start = output(baseline_params, start_4_1.K, start_4_1.E)
        mid = 0.5 * (0.40 + 0.55)

        def flat_at_mid(params, p, *args, **kwargs):
            return y_start if p == mid else y_start + mid - p

        with mock.patch.object(control, "tipping_root",
                               return_value=math.nan), \
                mock.patch.object(control, "horizon_output",
                                  flat_at_mid), counted_runs(3) as runs:
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=1e-3)
        assert runs == [0.40, 0.55, mid]
        assert result.p_star == mid and result.bracket == (mid, mid)
        assert result.growth_at_bracket == (0.0, 0.0)

    @pytest.mark.parametrize("root", [0.42, 0.5])
    def test_missed_pair_falls_back_to_the_unseeded_search(
            self, baseline_params, start_4_1, root):
        # growths whose root lies outside every pair, below or above it: a
        # step, whose equal growths have no secant root, and a cube, whose
        # secant roots close a third of the distance per pair; the ends then
        # make the runs of the search with no closed-form root
        y_start = output(baseline_params, start_4_1.K, start_4_1.E)
        bound = bisection_runs(0.15, 1e-3)
        for shape, pairs in ((lambda d: math.copysign(1.0, d), 1),
                             (lambda d: d ** 3, control.PAIRS)):
            def growth(params, p, *args, **kwargs):
                return y_start + shape(root - p)

            with mock.patch.object(control, "horizon_output", growth):
                with mock.patch.object(control, "tipping_root",
                                       return_value=math.nan), \
                        counted_runs(bound) as unseeded:
                    fallback = find_tipping(baseline_params, start_4_1, 0.1,
                                            200.0, 0.40, 0.55, tol=1e-3)
                with counted_runs(2 * pairs + bound) as runs:
                    result = find_tipping(baseline_params, start_4_1, 0.1,
                                          200.0, 0.40, 0.55, tol=1e-3)
            assert unseeded[:2] == [0.40, 0.55]
            assert len(runs) == 2 * pairs + len(unseeded)
            assert runs[2 * pairs:] == unseeded
            assert result.bracket == fallback.bracket
            # the cube's growth rounds to 0 a few doubles from its root
            lo, hi = result.bracket
            assert hi - lo <= 1e-3 and abs(result.p_star - root) <= 1e-3
            g_lo, g_hi = result.growth_at_bracket
            assert g_lo * g_hi <= 0

    @pytest.mark.parametrize("changes", [dict(alpha=0.4, beta=0.6),
                                         dict(s_k=0.0)],
                             ids=["alpha + beta = 1", "s_k = 0"])
    def test_no_pair_without_an_equilibrium(self, baseline_params, start_4_1,
                                            changes):
        # alpha + beta = 1 or s_k = 0 has no closed-form root: the ends run
        # first, as in a search without pairs
        params = replace(baseline_params, **changes)
        y_start = output(params, start_4_1.K, start_4_1.E)
        with pytest.raises(StructurallyUnstable):
            tipping_root(params, y_start)

        def linear(params, p, *args, **kwargs):
            return y_start + 0.47 - p

        with mock.patch.object(control, "horizon_output", linear), \
                counted_runs(bisection_runs(0.15, 1e-3)) as runs:
            result = find_tipping(params, start_4_1, 0.1, 200.0, 0.40, 0.55,
                                  tol=1e-3)
        assert runs[:2] == [0.40, 0.55]
        lo, hi = result.bracket
        assert lo <= 0.47 <= hi and hi - lo <= 1e-3

    @pytest.mark.parametrize("changes,p_inf", [
        ({}, 0.6), (dict(alpha=0.6, beta=0.6), -4.494232837155683e+307)],
        ids=["alpha + beta < 1", "alpha + beta > 1"])
    def test_root_of_a_zero_output_lies_outside_the_targets(
            self, baseline_params, changes, p_inf):
        # ln 0 = -inf, where math.log(0) raises, puts it at 1 - s_k or far
        # below 0
        params = replace(baseline_params, **changes)
        assert math.isclose(tipping_root(params, 0.0), p_inf, rel_tol=1e-12)

    def test_no_pair_from_an_output_that_underflows(self, baseline_params):
        # Y stays exactly 0 at every p, so every growth is 0 and no p is a
        # tipping point; the ends would return p_low as a root
        params = replace(baseline_params, alpha=0.6, beta=0.6)
        start = EconState(1e-300, 1e-300)
        assert output(params, start.K, start.E) == 0
        with counted_runs(0), pytest.raises(NoSignChange) as info:
            find_tipping(params, start, 0.1, 1.0, 0.40, 0.55)
        assert "underflows to 0" in str(info.value)

    def test_saddle_pairs_hold_the_root(self, baseline_params):
        # alpha + beta > 1: p_inf is a saddle's, and the pairs still run;
        # at T = 20 the second pair holds the root, where the ends and ITP
        # took 12 runs
        params = replace(baseline_params, alpha=0.6, beta=0.45)
        start = EconState(2.0, 1.0)
        with counted_runs(4) as runs:
            result = find_tipping(params, start, 0.1, 20.0, 0.05, 0.55,
                                  tol=1e-3)
        lo, hi = result.bracket
        p_inf = tipping_root(params, output(params, start.K, start.E))
        assert runs[0] == p_inf - 0.5e-3 and runs[2:] == [lo, hi]
        assert 0.05 < lo < hi < 0.55 and hi - lo <= 1e-3
        g_lo, g_hi = result.growth_at_bracket
        assert g_lo > 0 > g_hi

    @pytest.mark.parametrize("tol", [0.55 - 0.40, 0.3])
    def test_no_seed_where_the_pair_cannot_fit(self, baseline_params,
                                               start_4_1, tol):
        # the pair is tol wide, so a bracket no wider never holds it: the
        # closed-form root is computed, no pair runs, the ends run, and
        # their bracket and growths are the result
        with mock.patch.object(control, "tipping_root",
                               wraps=control.tipping_root) as seed, \
                counted_runs(2) as runs:
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=tol)
        seed.assert_called_once()
        assert runs == [0.40, 0.55]
        assert result.bracket == (0.40, 0.55)
        assert result.growth_at_bracket == (0.3174444808755956,
                                            -0.5757940400142931)

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.floats(0.01, 0.59), min_size=2, max_size=2,
                         unique=True).map(sorted),
           tol_steps=st.integers(-4, 4), root_steps=st.integers(-4, 4))
    # p_low + tol rounds to p_high here, yet the pair fits
    @example(ends=[0.0429655794896161, 0.501711069211014], tol_steps=-1,
             root_steps=0)
    def test_the_pair_runs_exactly_where_it_fits(self, ends, tol_steps,
                                                 root_steps):
        # a tol and a root p_inf within a few doubles of the bracket's width
        # and midpoint: the pair runs first wherever it lies inside the
        # bracket, and the ends run otherwise
        p_low, p_high = ends
        tol, p_inf = p_high - p_low, 0.5 * (p_low + p_high)
        for _ in range(abs(tol_steps)):
            tol = math.nextafter(tol, math.copysign(math.inf, tol_steps))
        for _ in range(abs(root_steps)):
            p_inf = math.nextafter(p_inf, math.copysign(math.inf, root_steps))
        x1 = p_inf - 0.5 * tol
        x2 = x1 + tol
        while x2 - x1 > tol:
            x2 = math.nextafter(x2, x1)

        def linear(params, p, *args, **kwargs):
            return 1.0 + p_inf - p

        params = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                             alpha=0.2, beta=0.35)
        start = EconState(1.0, 1.0)  # Y(0) = 1
        with mock.patch.object(control, "tipping_root", return_value=p_inf), \
                mock.patch.object(control, "horizon_output", linear), \
                counted_runs(bisection_runs(p_high - p_low, tol)) as runs:
            find_tipping(params, start, 0.1, 200.0, p_low, p_high, tol=tol)
        fits = p_low < x1 < x2 < p_high
        assert runs[:2] == ([x1, x2] if fits else [p_low, p_high])

    @pytest.mark.parametrize("tol", [1e-17, 5e-324])
    def test_tol_below_the_spacing_of_doubles_ends(self, baseline_params,
                                                  start_4_1, tol, capsys):
        # no double lies inside a bracket of two adjacent ones, so the search
        # ends there; bisection would reach them in about 2 + 52 runs
        with counted_runs(2 + 60):
            result = find_tipping(baseline_params, start_4_1, 0.1, 200.0,
                                  0.40, 0.55, tol=tol)
        lo, hi = result.bracket
        assert math.nextafter(lo, hi) == hi
        assert result.p_star in (lo, hi)
        with counted_runs(2 + 60):
            assert cli.run(["tipping", "--scenario", CONTROLLED,
                            "--p-min", "0.40", "--p-max", "0.55",
                            "--tol", repr(tol)]) == 0
        assert capsys.readouterr().out.startswith(
            f"p_star={result.p_star:.6g}\n")

    @settings(max_examples=20, deadline=None)
    @given(draws=tipping_draws(), tol=st.sampled_from([1e-17, 5e-324]))
    # a regula falsi point that rounds onto an end is moved to the midpoint;
    # run as it is, this draw ran its lower end again about 1,000 times
    @example(draws=(ModelParams(s_k=0.33995888580571937, s_r=0.1677448987432047,
                                delta_k=0.15369449665463752,
                                delta_r=0.2816261437270907,
                                alpha=0.2759603707326783,
                                beta=0.38688754135804604),
                    EconState(K=4.805571184407254, E=1.6744923197825576),
                    323.9975316320253, 0.3726689977502231,
                    0.5226689977502231), tol=5e-324)
    def test_every_draw_ends_at_adjacent_doubles(self, draws, tol):
        params, start, horizon, p_low, p_high = draws
        with counted_runs(2 + 60):
            result = find_tipping(params, start, 0.1, horizon, p_low, p_high,
                                  tol=tol)
        lo, hi = result.bracket
        assert math.nextafter(lo, hi) == hi

    @settings(max_examples=30, deadline=None)
    @given(draws=tipping_draws(), tol=st.floats(1e-6, 0.2))
    def test_search_keeps_bisections_contract(self, draws, tol):
        params, start, horizon, p_low, p_high = draws
        bound = bisection_runs(p_high - p_low, tol)
        with counted_runs(bound):
            result = find_tipping(params, start, 0.1, horizon, p_low, p_high,
                                  tol=tol)
        lo, hi = result.bracket
        assert p_low <= lo < hi <= p_high and hi - lo <= tol
        g_lo, g_hi = result.growth_at_bracket
        assert g_lo * g_hi < 0
        assert result.p_star == 0.5 * (lo + hi)

    def test_no_sign_change_when_both_grow(self, baseline_params, start_4_1):
        with pytest.raises(NoSignChange):
            find_tipping(baseline_params, start_4_1, 0.1, 200.0, 0.40, 0.42)

    def test_degenerate_bracket(self, baseline_params, start_4_1):
        with pytest.raises(ValidationError,
                           match=r"^p: empty bracket \[0.47, 0.47\]$"):
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

    @pytest.mark.parametrize("s_r0", [0.0, -2.5, math.nan, math.inf])
    def test_s_r0_is_checked_after_the_other_inputs_before_any_run(
            self, baseline_params, start_4_1, s_r0):
        # the first run's check_control refuses it before it integrates, at
        # a tol narrower or wider than the bracket
        for tol in (1e-3, 0.3):
            with mock.patch.object(control, "integrate",
                                   side_effect=AssertionError("integrated")), \
                    pytest.raises(ValidationError) as info:
                find_tipping(baseline_params, start_4_1, s_r0, 200.0, 0.40,
                             0.55, tol)
            assert str(info.value) == \
                f"s_r0: must be finite and positive, got {s_r0}"
        # a bad horizon, tol or bracket end is reported ahead of it
        for horizon, tol, p_low, field in ((-1.0, 1e-3, 0.40, "horizon"),
                                           (200.0, math.nan, 0.40, "tol"),
                                           (200.0, 1e-3, 0.6, "p")):
            with counted_runs(0), pytest.raises(ValidationError) as info:
                find_tipping(baseline_params, start_4_1, s_r0, horizon,
                             p_low, 0.55, tol)
            assert info.value.field == field

    @pytest.mark.parametrize("horizon,tol,p_low,p_high,error", [
        (200.0, 1e-3, 0.40, 0.55, None),
        (20.0, 1e-3, 0.40, 0.55, None),
        (200.0, 0.3, 0.40, 0.55, None),
        (-1.0, 1e-3, 0.40, 0.55, ValidationError),
        (200.0, math.nan, 0.40, 0.55, ValidationError),
        (200.0, 1e-3, 0.6, 0.55, ValidationError),
        (200.0, 1e-3, 0.55, 0.40, ValidationError),
    ], ids=["gate open", "gate closed", "tol wider than the bracket",
            "bad horizon", "bad tol", "bad end", "empty bracket"])
    def test_one_seed_per_search_that_passes_its_checks(
            self, baseline_params, start_4_1, horizon, tol, p_low, p_high,
            error):
        raises = pytest.raises(error) if error else contextlib.nullcontext()
        with mock.patch.object(control, "tipping_root",
                               wraps=control.tipping_root) as seed, raises:
            find_tipping(baseline_params, start_4_1, 0.1, horizon, p_low,
                         p_high, tol)
        assert seed.call_count == (0 if error else 1)

    def test_horizon_and_tol_are_checked_before_the_ends(self, baseline_params,
                                                         start_4_1):
        for horizon, tol, field in ((-1.0, 1e-3, "horizon"),
                                    (200.0, math.nan, "tol")):
            with pytest.raises(ValidationError) as info:
                find_tipping(baseline_params, start_4_1, 0.1, horizon,
                             math.nan, 0.55, tol)
            assert info.value.field == field


class TestLongRunOutcome:
    """The long-run outcome under a target p: output Y0 at the controlled
    equilibrium and consumption C = p * Y0."""

    @pytest.mark.parametrize("p_target,expected", [
        (0.40, (1.94195, 0.77678)),
        (0.47, (1.60357, 0.75368)),
        (0.55, (1.04871, 0.57679)),
    ])
    def test_analytic_outcomes(self, baseline_params, p_target, expected):
        Y = controlled_equilibrium(baseline_params, p_target).Y0
        assert Y == pytest.approx(expected[0], abs=1e-5)
        assert p_target * Y == pytest.approx(expected[1], abs=1e-5)

    def test_output_decreasing_in_target(self, baseline_params):
        grid = np.linspace(0.05, 0.55, 26)
        outputs = [controlled_equilibrium(baseline_params, p).Y0
                   for p in grid]
        assert np.all(np.diff(outputs) < 0)

    def test_floor_above_s_r_star_leaves_the_outcome_unchanged(
            self, baseline_params):
        floored = replace(baseline_params, s_r_floor=0.1)  # s_r* = 0.05
        assert controlled_equilibrium(floored, 0.55).Y0 == \
            controlled_equilibrium(baseline_params, 0.55).Y0

    def test_consumption_non_monotone(self, baseline_params):
        c47 = 0.47 * controlled_equilibrium(baseline_params, 0.47).Y0
        c55 = 0.55 * controlled_equilibrium(baseline_params, 0.55).Y0
        assert c47 > c55
