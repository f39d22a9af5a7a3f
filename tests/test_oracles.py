"""Simulated runs checked against the closed forms in analysis.py.

The closed forms stay independent of the solvers: find_tipping never sees
the tipping root computed here, and the long-run properties compare an
integrated end state with equilibrium() and controlled_equilibrium().
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capedu.analysis import (
    controlled_equilibrium, eigen_basic, equilibrium, jacobian_basic,
    tipping_root,
)
from capedu.control import find_tipping, horizon_output, simulate_controlled
from capedu.integrator import DEFAULT_SETTINGS, integrate
from capedu.model import (
    BASIC, CONTROLLED, CONTROLLED_Q, MODULATED, EconState, ModelParams,
    basic_rhs, control_rhs, output,
)
from capedu.scenario_io import load_scenario, run_scenario

from conftest import BASELINE
from test_integrator import rhs_calls

# Near a stable equilibrium the log-distance decays like exp(lambda*t), with
# lambda the slowest eigenvalue's real part; the (1 + |lambda| t) factor
# covers equal eigenvalues and TRANSIENT the growth before the decay sets in
# (nearly equal eigenvalues with a strong coupling make it ~12).  DECAYS
# slowest time constants make that term small beside INTEGRATION, ten times
# the default rel_tol (the largest error seen over 2,000 draws was 1.7e-8).
DECAYS = 40.0
TRANSIENT = 1e3
INTEGRATION = 1e-7
# abs_tol 1e-10 stands for a relative error only on stocks well above it
SMALLEST_STOCK = 1e-2
# an explicit method's step is bounded by the fastest eigenvalue, so a run
# over DECAYS slowest time constants takes about DECAYS x STIFFNESS steps
STIFFNESS = 100.0


def allowed(offset: float) -> float:
    """The largest log-distance left after DECAYS slowest time constants."""
    return (TRANSIENT * (1.0 + DECAYS) * math.exp(-DECAYS) * offset
            + INTEGRATION)


def closed_form_tipping_root(params: ModelParams, y_start: float) -> float:
    """The p at which the controlled equilibrium output Y0 equals y_start.

    At equilibrium K = Y s_k/delta_k and E = Y s_r*/delta_r, so
    Y0^(1-alpha-beta) = (s_r*/delta_r)^alpha (s_k/delta_k)^beta; solve it
    for s_r* = 1 - s_k - p.
    """
    a, b = params.alpha, params.beta
    s_r_star = params.delta_r * (
        y_start ** (1.0 - a - b)
        / (params.s_k / params.delta_k) ** b) ** (1.0 / a)
    return 1.0 - params.s_k - s_r_star


# Criterion 6's tol, the dense_chaos workload's, and an 8-run search that
# ends in [0.4661504, 0.4661505].  The closed form is the root at T = inf;
# the root at T = 200 lies 1.6e-9 below it, so from a tol near 1e-8 down the
# bracket (3.5e-10 wide at 1e-8) rightly leaves the closed form out.
@pytest.mark.parametrize("tol", [1e-3, 0.05, 1e-6])
def test_tipping_bracket_contains_the_closed_form_root(tol):
    params, start = ModelParams(**BASELINE), EconState(4.0, 1.0)
    y_start = output(params, start.K, start.E)
    root = closed_form_tipping_root(params, y_start)
    # the root is where controlled_equilibrium's output returns to Y(0)
    assert math.isclose(controlled_equilibrium(params, root).Y0, y_start,
                        rel_tol=1e-12)
    assert math.isclose(root, 0.466150, abs_tol=5e-7)
    # criterion 6's search: T = 200, bracket [0.40, 0.55]
    result = find_tipping(params, start, 0.1, 200.0, 0.40, 0.55, tol=tol)
    lo, hi = result.bracket
    assert lo <= root <= hi and hi - lo <= tol


@st.composite
def stable_params(draw):
    """Random parameters with alpha + beta < 1 (a stable equilibrium)."""
    alpha = draw(st.floats(0.05, 0.8))
    beta = draw(st.floats(0.05, 0.9 - alpha))
    s_k = draw(st.floats(0.05, 0.6))
    return ModelParams(s_k=s_k, s_r=draw(st.floats(0.02, 1.0 - s_k)),
                       delta_k=draw(st.floats(0.05, 0.5)),
                       delta_r=draw(st.floats(0.05, 0.5)),
                       alpha=alpha, beta=beta)


offsets = st.floats(-1.0, 1.0)


def invariant_line_E(params: ModelParams, E0: float, t) -> np.ndarray:
    """E(t) on the invariant line K = (s_k/s_r) E of delta_k = delta_r.

    There Y = (s_k/s_r)^beta E^gamma with gamma = alpha + beta, so
    E' = A E^gamma - delta E with A = s_r (s_k/s_r)^beta: a Bernoulli
    equation, linear in E^(1 - gamma).
    """
    gamma, delta = params.alpha + params.beta, params.delta_r
    rest = params.s_r * (params.s_k / params.s_r) ** params.beta / delta
    w = rest + (E0 ** (1.0 - gamma) - rest) * np.exp(
        -(1.0 - gamma) * delta * np.asarray(t))
    return w ** (1.0 / (1.0 - gamma))


def test_invariant_line_scenario_follows_the_closed_form():
    path = Path(__file__).resolve().parent.parent / "scenarios"
    scenario = load_scenario((path / "basic_invariant_line.json").read_text())
    params, start = scenario.params, scenario.initial
    slope = params.s_k / params.s_r
    assert scenario.initial.K == slope * start.E  # the run starts on the line
    traj = run_scenario(scenario)
    E = invariant_line_E(params, start.E, traj.times)
    assert traj.times.size == 201
    np.testing.assert_allclose(traj["E"], E, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(traj["K"], slope * E, rtol=1e-10, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), E0=st.floats(-2.0, 1.5).map(
    lambda u: 10.0 ** u))
def test_runs_on_the_invariant_line_follow_the_closed_form(params, E0):
    params = replace(params, delta_k=params.delta_r)
    slope = params.s_k / params.s_r
    gamma = params.alpha + params.beta
    horizon = 8.0 / ((1.0 - gamma) * params.delta_r)
    calls, raw = rhs_calls(integrate, basic_rhs(params), [slope * E0, E0],
                           0.0, horizon, DEFAULT_SETTINGS, horizon / 50)
    E = invariant_line_E(params, E0, raw.times)
    # each step's local error is within abs_tol + rel_tol |y|; they add up
    s = DEFAULT_SETTINGS
    steps = (calls - 1) // 6
    bound = steps * (s.abs_tol + s.rel_tol * np.abs(raw.states).max())
    assert np.all(np.abs(raw.states[:, 1] - E) <= bound)
    assert np.all(np.abs(raw.states[:, 0] - slope * E) <= bound)


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), s_r_star=st.floats(0.02, 0.9))
def test_tipping_root_inverts_the_controlled_equilibrium(params, s_r_star):
    # analysis.tipping_root against the copy above, written another way
    p = 1.0 - params.s_k - min(s_r_star, 0.98 - params.s_k)
    y_start = controlled_equilibrium(params, p).Y0
    assert math.isclose(tipping_root(params, y_start), p, abs_tol=1e-12)
    assert math.isclose(tipping_root(params, y_start),
                        closed_form_tipping_root(params, y_start),
                        abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), u=offsets, w=offsets)
def test_basic_runs_end_at_the_equilibrium(params, u, w):
    K0, E0 = equilibrium(params)
    assume(min(K0, E0) >= SMALLEST_STOCK)
    fastest, slowest = sorted(e.real for e in eigen_basic(params))
    assert slowest < 0
    assume(fastest / slowest <= STIFFNESS)
    horizon = DECAYS / -slowest
    raw = integrate(basic_rhs(params), [K0 * math.exp(u), E0 * math.exp(w)],
                    0.0, horizon, sample_step=horizon)
    K, E = raw.states[-1]
    distance = max(abs(math.log(K / K0)), abs(math.log(E / E0)))
    assert distance <= allowed(max(abs(u), abs(w)))


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), s_r_star=st.floats(0.02, 0.9),
       u=offsets, w=offsets, v=offsets)
def test_controlled_runs_end_at_the_controlled_equilibrium(
        params, s_r_star, u, w, v):
    s_r_star = min(s_r_star, 0.98 - params.s_k)
    p = 1.0 - params.s_k - s_r_star
    report = controlled_equilibrium(params, p)
    assume(min(report.K0, report.E0) >= SMALLEST_STOCK)
    fastest, *_, slowest = sorted(e.real for e in report.eigenvalues)
    assert slowest < 0
    # the third eigenvalue is -Y0: a large output level makes a run stiff
    assume(fastest / slowest <= STIFFNESS)
    horizon = DECAYS / -slowest
    u, w, v = 0.5 * u, 0.5 * w, 0.5 * v
    traj = simulate_controlled(
        params, p, EconState(report.K0 * math.exp(u), report.E0 * math.exp(w)),
        s_r_star * math.exp(v), horizon, sample_step=horizon)
    end = traj.at(horizon)
    distance = max(abs(math.log(end["K"] / report.K0)),
                   abs(math.log(end["E"] / report.E0)),
                   abs(end["s_r"] / s_r_star - 1.0))
    assert distance <= allowed(max(abs(u), abs(w), abs(v)))


# stocks from 10^-8 to 10^1.5, far below abs_tol too: near such an
# equilibrium the error estimate is about 0 and h grows 5x per step until a
# stage leaves the domain, which the integrator then rejects as a step
stocks = st.floats(-8.0, 1.5).map(lambda u: 10.0 ** u)


@settings(max_examples=60, deadline=None)
@given(params=stable_params(), K=stocks, E=stocks)
def test_basic_runs_stay_positive(params, K, E):
    # K' >= -delta_k K and E' >= -delta_r E: no exact orbit leaves K, E > 0,
    # so a DomainError, which integrate raises, would fail the test
    fastest, slowest = sorted(eigen_basic(params))
    assume(fastest / slowest <= STIFFNESS)
    horizon = DECAYS / -slowest
    raw = integrate(basic_rhs(params), [K, E], 0.0, horizon,
                    sample_step=horizon)
    assert np.all(raw.states > 0)


# stocks far below abs_tol, where the error estimate no longer holds h back
TINY = ModelParams(s_k=0.5, s_r=0.03125, delta_k=0.5, delta_r=0.5,
                   alpha=0.75, beta=0.125)


# counts: the run's (steps, accepted, domain_rejected); each run has attempts
# that a stage outside the domain ended
@pytest.mark.parametrize("params,start,horizon,counts", [
    # from K = E = 1 over 40 slowest time constants, to K0 = 1.7e-9
    (replace(TINY, alpha=0.796875, beta=0.09375), [1.0, 1.0], 731.4,
     (233, 225, 2)),
    # from K0 (1 + 1e-9), E0 beside the equilibrium K0 = 5.96e-8, E0 = 3.73e-9
    # (at the equilibrium itself the field is about 0, and no stage moves)
    (TINY, None, 320.0, (54, 50, 1)),
], ids=["from_one", "beside_the_equilibrium"])
def test_tiny_stocks_runs_end_at_the_equilibrium(params, start, horizon,
                                                 counts):
    K0, E0 = equilibrium(params)
    raw = integrate(basic_rhs(params), start or [K0 * (1 + 1e-9), E0], 0.0,
                    horizon, sample_step=horizon)
    stats = raw.stats
    assert (stats.steps, stats.accepted, stats.domain_rejected) == counts
    K, E = raw.states[-1]
    assert K > 0 and E > 0
    assert abs(K - K0) <= DEFAULT_SETTINGS.abs_tol
    assert abs(E - E0) <= DEFAULT_SETTINGS.abs_tol


@settings(max_examples=60, deadline=None)
@given(params=stable_params(), s_r_star=st.floats(0.02, 0.9), K=stocks,
       E=stocks, v=st.floats(-1.0, 0.5))
def test_controlled_runs_stay_positive(params, s_r_star, K, E, v):
    s_r_star = min(s_r_star, 0.98 - params.s_k)
    p = 1.0 - params.s_k - s_r_star
    fastest, *_, slowest = sorted(controlled_equilibrium(params, p).eigenvalues)
    assume(fastest / slowest <= STIFFNESS)
    horizon = DECAYS / -slowest
    traj = simulate_controlled(params, p, EconState(K, E),
                               s_r_star * 10.0 ** v, horizon,
                               sample_step=horizon)
    assert np.all(traj["K"] > 0) and np.all(traj["E"] > 0)


def symbolic_system(system, sympy):
    """The system's derivatives as a sympy Matrix parsed from its declared
    text, with the names it binds: states, constants and each line's."""
    names = {n: sympy.Symbol(n) for n in system.states + system.constants}
    for line in system.lines:
        name, assigns, expr = line.partition(" = ")
        if assigns:
            names[name] = sympy.parse_expr(expr, local_dict=names)
        else:  # the domain guard assigns nothing
            assert line.startswith("if not (") and line.endswith(
                "): _require_positive(K, E)")
    return sympy.Matrix([sympy.parse_expr(d, local_dict=names)
                         for d in system.derivatives]), names


def parsed_system(system, sympy):
    """The system's derivatives and their Jacobian in its states, parsed from
    its declared text, as functions of (states..., constants...)."""
    field, names = symbolic_system(system, sympy)
    states = [names[n] for n in system.states]
    args = states + [names[n] for n in system.constants]
    return (sympy.lambdify(args, field, "numpy"),
            sympy.lambdify(args, field.jacobian(states), "numpy"))


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), s_r_star=st.floats(0.02, 0.9))
def test_declared_controlled_system_matches_the_closed_forms(params,
                                                              s_r_star):
    # the tipping oracle trusts controlled_equilibrium, which is written by
    # hand apart from the text the runs integrate; this ties the two
    sympy = pytest.importorskip("sympy")
    s_r_star = min(s_r_star, 0.98 - params.s_k)
    p = 1.0 - params.s_k - s_r_star
    report = controlled_equilibrium(params, p)
    field, jacobian = parsed_system(CONTROLLED, sympy)
    args = [report.K0, report.E0, 1.0 - params.s_k - p] + [
        p if n == "p" else getattr(params, n) for n in CONTROLLED.constants]
    dK, dE, ds_r = np.asarray(field(*args), dtype=float).ravel()
    assert abs(dK) <= 1e-12 * params.delta_k * report.K0
    assert abs(dE) <= 1e-12 * params.delta_r * report.E0
    assert abs(ds_r) <= 1e-12 * report.Y0
    expected = report.jacobian
    np.testing.assert_allclose(np.asarray(jacobian(*args), dtype=float),
                               expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), c=st.floats(-1.0, 1.0), b=st.floats(0.0, 1.0),
       driver=st.tuples(offsets, offsets))
def test_declared_basic_and_modulated_systems_match_the_closed_forms(
        params, c, b, driver):
    # equilibrium and jacobian_basic are written by hand apart from the text
    # the runs integrate; this ties the two.  With the driver at x = 0 the
    # modulated (K, E) equations are the basic ones, whatever y and z are.
    sympy = pytest.importorskip("sympy")
    K0, E0 = equilibrium(params)
    expected = jacobian_basic(params)
    values = {name: getattr(params, name) for name in BASIC.constants}
    values.update(K=K0, E=E0, x=0.0, y=driver[0], z=driver[1], c=c, b=b)
    for system in (BASIC, MODULATED):
        field, jacobian = parsed_system(system, sympy)
        args = [values[n] for n in system.states + system.constants]
        dK, dE = np.asarray(field(*args), dtype=float).ravel()[:2]
        assert abs(dK) <= 1e-12 * params.delta_k * K0
        assert abs(dE) <= 1e-12 * params.delta_r * E0
        np.testing.assert_allclose(
            np.asarray(jacobian(*args), dtype=float)[:2, :2], expected,
            rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_declared_q_system_solves_the_s_r_equation():
    # s_r = s_rs + u0 exp(-Q) with Q' = Y and s_rs = 1 - s_k - p solves the
    # paper's ds_r/dt = (1 - s_k - s_r - p) Y from s_r(0) = s_rs + u0, and
    # (K, E) move as in the (K, E, s_r) system
    sympy = pytest.importorskip("sympy")
    q_field, q = symbolic_system(CONTROLLED_Q, sympy)
    field, names = symbolic_system(CONTROLLED, sympy)
    s_r = q["s_r"]
    p = 1 - q["s_k"] - q["s_rs"]
    ds_r = sympy.diff(s_r, q["Q"]) * q_field[2]  # chain rule through Q' = Y
    paper = field.subs({names["s_r"]: s_r, names["p"]: p})
    assert sympy.simplify(ds_r - paper[2]) == 0
    assert sympy.simplify(q_field[:2, 0] - paper[:2, 0]) == sympy.zeros(2, 1)
    assert sympy.simplify(s_r.subs(q["Q"], 0) - q["s_rs"] - q["u0"]) == 0


@settings(max_examples=40, deadline=None)
@given(params=stable_params(), s_r_star=st.floats(0.02, 0.9))
def test_declared_q_system_has_no_fast_mode(params, s_r_star):
    # at the controlled equilibrium (u0 = 0) the (K, E, Q) Jacobian is block
    # triangular: the basic block at s_r* and Q's 0, where the (K, E, s_r)
    # one has -Y0 in its place
    sympy = pytest.importorskip("sympy")
    s_r_star = min(s_r_star, 0.98 - params.s_k)
    p = 1.0 - params.s_k - s_r_star
    report = controlled_equilibrium(params, p)
    assert report.eigenvalues[2] == -report.Y0
    _, jacobian = parsed_system(CONTROLLED_Q, sympy)
    values = dict(K=report.K0, E=report.E0, Q=0.0, s_rs=s_r_star, u0=0.0)
    args = [values[n] if n in values else getattr(params, n)
            for n in CONTROLLED_Q.states + CONTROLLED_Q.constants]
    eigenvalues = np.linalg.eigvals(np.asarray(jacobian(*args), dtype=float))
    expected = np.array(report.eigenvalues[:2] + (0.0,))
    scale = np.abs(expected).max()
    np.testing.assert_allclose(np.sort(eigenvalues.real), np.sort(expected),
                               rtol=1e-9, atol=1e-9 * scale)
    assert np.abs(eigenvalues.imag).max() <= 1e-9 * scale
    assume(min(abs(e + report.Y0) for e in expected) > 1e-3 * report.Y0)
    assert min(abs(e + report.Y0) for e in eigenvalues) > 1e-3 * report.Y0


@pytest.mark.parametrize("horizon", [20.0, 200.0])
@pytest.mark.parametrize("p", [0.40, 0.47, 0.55])
def test_horizon_output_matches_scipy_on_the_paper_field(p, horizon):
    # Y(T) of the (K, E, Q) run against scipy's DOP853 on the (K, E, s_r)
    # field at a tight tolerance, for criterion 6's start
    scipy_integrate = pytest.importorskip("scipy.integrate")
    params = ModelParams(**BASELINE)
    field = control_rhs(params, p)
    ref = scipy_integrate.solve_ivp(
        lambda t, y: field(np.asarray(y)), (0.0, horizon), [4.0, 1.0, 0.1],
        method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]
    y_ref = output(params, ref[0], ref[1])
    y_end = horizon_output(params, p, EconState(4.0, 1.0), 0.1, horizon)
    assert abs(y_end / y_ref - 1.0) <= 1e-8
