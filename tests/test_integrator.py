from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedu import integrator
from capedu.errors import DomainError, NonFiniteState, StepLimitExceeded
from capedu.integrator import (
    _A, _B, _E, _INITIAL_STEP, _MAX_FACTOR, _MIN_FACTOR, _ORDER_EXP, _SAFETY,
    CHAOS_SETTINGS, DEFAULT_SETTINGS, IntegratorSettings, _sample_grid,
    integrate,
)
from capedu.model import (
    ModelParams, basic_rhs, control_rhs, modulated_rhs, ne9_rhs,
)

BASELINE = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                       alpha=0.2, beta=0.35)


def decay(y):
    return -y


def test_exponential_decay_accuracy():
    raw = integrate(decay, [1.0], 0.0, 1.0, sample_step=0.1)
    assert abs(raw.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_constant_field_exact():
    raw = integrate(lambda y: np.zeros_like(y), [4.0, 1.0], 0.0, 50.0,
                    sample_step=1.0)
    assert np.all(raw.states == [4.0, 1.0])


def test_output_grid_is_requested_progression():
    raw = integrate(decay, [1.0], 0.0, 2.0, sample_step=0.25)
    expected = 0.0 + 0.25 * np.arange(9)
    assert np.array_equal(raw.times, expected)


def test_final_time_included_when_off_grid():
    raw = integrate(decay, [1.0], 0.0, 1.0, sample_step=0.3)
    assert raw.times[-1] == 1.0
    assert np.array_equal(raw.times[:-1], 0.3 * np.arange(4))
    assert abs(raw.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_intermediate_samples_accurate():
    raw = integrate(decay, [1.0], 0.0, 5.0, sample_step=0.5)
    assert np.max(np.abs(raw.states[:, 0] - np.exp(-raw.times))) < 1e-8


def test_tolerance_halving_improves():
    # nonlinear test problem y' = -y^3/2, y(t) = 1/sqrt(1+t)
    def field(y):
        return -0.5 * y ** 3

    exact = 1.0 / np.sqrt(11.0)
    coarse = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-8)
    fine = IntegratorSettings(rel_tol=5e-7, abs_tol=5e-9)
    y_coarse = integrate(field, [1.0], 0.0, 10.0, coarse, 1.0).states[-1, 0]
    y_fine = integrate(field, [1.0], 0.0, 10.0, fine, 1.0).states[-1, 0]
    coarse_err = abs(y_coarse - exact)
    assert abs(y_fine - y_coarse) < max(coarse_err, 1e-9)
    assert abs(y_fine - exact) <= coarse_err + 1e-12


def test_deterministic_reruns():
    a = integrate(decay, [1.0], 0.0, 10.0, sample_step=0.1)
    b = integrate(decay, [1.0], 0.0, 10.0, sample_step=0.1)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_step_limit_exceeded(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 3)
    with pytest.raises(StepLimitExceeded, match="max_steps=3 reached"):
        integrate(decay, [1.0], 0.0, 100.0, sample_step=100.0)


def test_non_finite_state_detected():
    def field(y):
        if y[0] > 100.0:
            return np.array([np.nan])
        return y.copy()

    with pytest.raises(NonFiniteState):
        integrate(field, [1.0], 0.0, 20.0, sample_step=20.0)


def test_field_must_return_one_value_per_state_component():
    with pytest.raises(ValueError, match="field returned 1 values"):
        integrate(lambda y: [0.0], [1.0, 2.0], 0.0, 1.0, sample_step=0.5)


def test_non_finite_initial_state():
    with pytest.raises(NonFiniteState):
        integrate(decay, [np.nan], 0.0, 1.0, sample_step=0.5)


def test_bad_time_interval():
    with pytest.raises(ValueError):
        integrate(decay, [1.0], 1.0, 1.0, sample_step=0.5)
    with pytest.raises(ValueError):
        integrate(decay, [1.0], 0.0, 1.0, sample_step=-0.5)


@pytest.mark.parametrize("kwargs", [
    dict(rel_tol=0.0),
    dict(abs_tol=-1.0),
])
def test_settings_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorSettings(**kwargs)


@pytest.mark.parametrize("t0,t1,sample_step", [
    (0.0, np.inf, 0.5),
    (-np.inf, 1.0, 0.5),
    (0.0, np.nan, 0.5),
    (0.0, 1.0, np.inf),
    (0.0, 1.0, np.nan),
])
def test_non_finite_times_rejected(t0, t1, sample_step):
    with pytest.raises(ValueError, match="must be finite"):
        integrate(decay, [1.0], t0, t1, sample_step=sample_step)


def test_domain_error_names_t_h_and_state(monkeypatch):
    # decay this fast sends the first stage of a 0.5 step below K = 0
    params = ModelParams(s_k=0.4, s_r=0.1, delta_k=50.0, delta_r=0.25,
                         alpha=0.2, beta=0.35)
    monkeypatch.setattr(integrator, "_INITIAL_STEP", 0.5)
    with pytest.raises(DomainError) as info:
        integrate(basic_rhs(params), [4.0, 1.0], 0.0, 10.0, sample_step=1.0)
    message = str(info.value)
    assert message.startswith("K and E must stay positive")
    assert "t=0 " in message
    assert "h=0.5," in message
    assert "y=[4, 1]" in message


def test_non_finite_state_names_t_h_and_state():
    def field(y):
        return np.array([np.nan]) if y[0] > 2.0 else y.copy()

    with pytest.raises(NonFiniteState, match=r"t=\S+ with h=\S+, y=\[\S+\]"):
        integrate(field, [1.0], 0.0, 20.0, sample_step=20.0)


def blas_reference_integrate(field, y0, t0, t1, settings, sample_step):
    """The step loop before the Python-float stages, kept as a reference:
    numpy stage sums with @, an array max-norm error and a largest step of
    1.0.  Its sums round differently, as BLAS may fuse and reorder them."""
    A = [np.array(row) for row in _A]
    B, E = np.array(_B), np.array(_E)
    y = np.asarray(y0, dtype=float).copy()
    grid = _sample_grid(t0, t1, sample_step)
    out = np.empty((len(grid), y.size))
    out[0] = y
    rtol, atol = settings.rel_tol, settings.abs_tol
    h = _INITIAL_STEP
    t = t0
    k = np.empty((7, y.size))
    k[6] = field(y)
    for i in range(1, len(grid)):
        t_target = grid[i]
        while t < t_target - 1e-14 * max(1.0, abs(t_target)):
            h = min(h, 1.0, t_target - t)
            k[0] = k[6]
            for s in range(1, 7):
                ys = y + h * (A[s] @ k[:s])
                k[s] = field(ys)
            y_new = y + h * (B @ k)
            err_vec = h * (E @ k)
            scale = atol + rtol * np.abs(y_new)
            err = float((np.abs(err_vec) / scale).max())
            if err <= 1.0:
                t = t + h
                y = y_new
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
                h = h * max(_MIN_FACTOR, factor)
            else:
                k[6] = k[0]
                h = h * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)
        t = t_target
        out[i] = y
    return grid, out


def weighted_sum(weights, k, i):
    """Component i of the sum of w * k[j] over the non-zero weights, left to
    right."""
    total = None
    for w, k_j in zip(weights, k):
        if w != 0.0:
            total = w * k_j[i] if total is None else total + w * k_j[i]
    return total


def reference_integrate(field, y0, t0, t1, settings, sample_step):
    """The step loop written once over the rows of _A, _B and _E in Python
    floats, summing in tableau order: the oracle for the bits of
    integrate's unrolled stages.  Same controller and landing rule."""
    y = [float(v) for v in y0]
    dim = range(len(y))
    grid = _sample_grid(t0, t1, sample_step)
    out = [y]
    rtol, atol = settings.rel_tol, settings.abs_tol
    h = _INITIAL_STEP
    t = t0
    k = [None] * 7
    k[6] = field(np.array(y))
    for t_target in grid.tolist()[1:]:
        while t < t_target - 1e-14 * max(1.0, abs(t_target)):
            h = min(h, t_target - t)
            k[0] = k[6]
            for s in range(1, 7):
                k[s] = field(np.array(
                    [y[i] + h * weighted_sum(_A[s], k, i) for i in dim]))
            y_new = [y[i] + h * weighted_sum(_B, k, i) for i in dim]
            err = max(abs(h * weighted_sum(_E, k, i))
                      / (atol + rtol * abs(y_new[i])) for i in dim)
            if err <= 1.0:
                t = t + h
                y = y_new
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
                h = h * max(_MIN_FACTOR, factor)
            else:
                k[6] = k[0]
                h = h * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)
        t = t_target
        out.append(y)
    return grid, np.array(out)


def assert_same_bits(field, y0, t1, settings, sample_step):
    raw = integrate(field, y0, 0.0, t1, settings, sample_step)
    times, states = reference_integrate(field, y0, 0.0, t1, settings,
                                        sample_step)
    assert np.array_equal(raw.times, times)
    assert np.array_equal(raw.states, states)


REFERENCE_RUNS = pytest.mark.parametrize(
    "field,y0,t1,run_settings,sample_step", [
        (decay, [1.0], 10.0, DEFAULT_SETTINGS, 0.1),
        (basic_rhs(BASELINE), [4.0, 1.0], 200.0, DEFAULT_SETTINGS, 1.0),
        (control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 200.0,
         DEFAULT_SETTINGS, 0.5),
        (ne9_rhs(), [0.5, 0.0, 0.0], 20.0, CHAOS_SETTINGS, 0.01),
        (modulated_rhs(BASELINE, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0], 20.0,
         CHAOS_SETTINGS, 0.05),
    ], ids=["decay", "basic", "controlled", "ne9", "modulated"])


@REFERENCE_RUNS
def test_same_bits_as_reference_loop(field, y0, t1, run_settings,
                                     sample_step):
    assert_same_bits(field, y0, t1, run_settings, sample_step)


@REFERENCE_RUNS
def test_same_steps_as_blas_loop(field, y0, t1, run_settings, sample_step):
    # landing on samples at most 1.0 apart bounds every step as the BLAS
    # loop's 1.0 cap does
    args = (y0, 0.0, t1, run_settings, sample_step)
    calls, raw = rhs_calls(integrate, field, *args)
    blas_calls, (times, states) = rhs_calls(blas_reference_integrate,
                                            field, *args)
    assert calls == blas_calls
    assert np.array_equal(raw.times, times)
    # With the same steps the loops differ only in rounding: each step's
    # sums round differently by about an ulp of max(1, |y|).  These runs
    # take at most ~2,000 steps, so 2,000 * 2 * 2.2e-16 < 1e-12 leaves room
    # for the flow's growth over T = 20 (measured: at most 1.3e-14).
    bound = 1e-12 * np.maximum(1.0, np.abs(states))
    assert np.all(np.abs(raw.states - states) <= bound)


def test_list_and_ndarray_fields_give_the_same_bits():
    field = modulated_rhs(BASELINE, 0.5)
    args = ([4.0, 1.0, 0.5, 0.0, 0.0], 0.0, 20.0, CHAOS_SETTINGS, 0.05)
    as_list = integrate(field, *args)
    as_array = integrate(lambda v: np.array(field(v)), *args)
    assert np.array_equal(as_list.states, as_array.states)


@st.composite
def stable_basic_runs(draw):
    s_k = draw(st.floats(0.05, 0.6))
    s_r = draw(st.floats(0.05, 0.95 - s_k))
    alpha = draw(st.floats(0.05, 0.6))
    beta = draw(st.floats(0.05, 0.9 - alpha))  # alpha + beta < 1: stable
    params = ModelParams(s_k=s_k, s_r=s_r, alpha=alpha, beta=beta,
                         delta_k=draw(st.floats(0.05, 0.5)),
                         delta_r=draw(st.floats(0.05, 0.5)))
    y0 = [draw(st.floats(0.2, 8.0)), draw(st.floats(0.2, 8.0))]
    sample_step = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    return params, y0, draw(st.floats(1.0, 40.0)), sample_step


@settings(max_examples=25, deadline=None)
@given(run=stable_basic_runs())
def test_same_bits_as_reference_loop_on_random_basic_runs(run):
    params, y0, t1, sample_step = run
    assert_same_bits(basic_rhs(params), y0, t1, DEFAULT_SETTINGS, sample_step)


def rhs_calls(loop, field, *args):
    """The number of calls loop(field, *args) makes to field, and its result."""
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return field(v)

    result = loop(counted, *args)
    return calls, result


# endpoint-only runs over T = 200: no step cap, so the controller alone sets
# each step (1 FSAL seed + 6 calls per attempted step)
ENDPOINT_RUNS = {
    "basic": (basic_rhs(BASELINE), [4.0, 1.0], 415),
    "controlled": (control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 499),
}


@pytest.mark.parametrize("name", list(ENDPOINT_RUNS))
def test_endpoint_only_rhs_calls(name):
    field, y0, expected = ENDPOINT_RUNS[name]
    calls, raw = rhs_calls(integrate, field, y0, 0.0, 200.0, None, 200.0)
    assert calls == expected
    assert raw.times.tolist() == [0.0, 200.0]


@pytest.mark.parametrize("name", list(ENDPOINT_RUNS))
def test_endpoint_only_runs_match_scipy(name):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    field, y0, _ = ENDPOINT_RUNS[name]
    calls, raw = rhs_calls(integrate, field, y0, 0.0, 200.0, None, 200.0)
    ref = scipy_integrate.solve_ivp(
        lambda t, y: field(np.asarray(y)), (0.0, 200.0), y0, method="DOP853",
        rtol=1e-12, atol=1e-14).y[:, -1]
    # every attempted step keeps its local error within abs_tol + rel_tol*|y|,
    # and these flows contract onto their equilibria, so the errors at T
    # add up to at most one such tolerance per step
    s = DEFAULT_SETTINGS
    steps = (calls - 1) // 6
    bound = steps * (s.abs_tol + s.rel_tol * np.abs(ref))
    assert np.all(np.abs(raw.states[-1] - ref) <= bound)


def flow_growth(field, y0, times):
    """Largest max-norm gain of a perturbation between two sample times, from
    the variational equation along the orbit: max ||Phi_i Phi_j^-1|| over
    j <= i, with Phi from scipy and the Jacobian by central differences."""
    from scipy.integrate import solve_ivp
    n = len(y0)

    def variational(t, w):
        y, phi = w[:n], w[n:].reshape(n, n)
        jac = np.empty((n, n))
        for j in range(n):
            d = np.zeros(n)
            d[j] = 1e-6 * max(1.0, abs(y[j]))
            jac[:, j] = np.subtract(field(y + d), field(y - d)) / (2 * d[j])
        return np.concatenate([field(y), (jac @ phi).ravel()])

    sol = solve_ivp(variational, (times[0], times[-1]),
                    np.concatenate([y0, np.eye(n).ravel()]), method="DOP853",
                    rtol=1e-8, atol=1e-10, t_eval=times)
    phi = sol.y[n:].T.reshape(-1, n, n)
    inv = np.linalg.inv(phi)
    return max(np.abs(phi[i] @ inv[:i + 1]).sum(axis=2).max()
               for i in range(len(times)))


# sampled runs against scipy: (field, y0, T, settings, sample_step, chaotic)
SAMPLED_RUNS = {
    "controlled": (control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 200.0,
                   DEFAULT_SETTINGS, 0.5, False),
    "ne9": (ne9_rhs(), [0.5, 0.0, 0.0], 10.0, CHAOS_SETTINGS, 0.1, True),
    "modulated": (modulated_rhs(BASELINE, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0],
                  10.0, CHAOS_SETTINGS, 0.1, True),
}


@pytest.mark.parametrize("name", list(SAMPLED_RUNS))
def test_sampled_runs_match_scipy(name):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    field, y0, t1, run_settings, sample_step, chaotic = SAMPLED_RUNS[name]
    calls, raw = rhs_calls(integrate, field, y0, 0.0, t1, run_settings,
                           sample_step)
    ref = scipy_integrate.solve_ivp(
        lambda t, y: field(np.asarray(y)), (0.0, t1), y0, method="DOP853",
        rtol=1e-12, atol=1e-14, t_eval=raw.times).y.T
    # every attempted step keeps its local error within abs_tol +
    # rel_tol*|y|, so at most one such tolerance per step reaches a sample.
    # The controlled flow contracts onto its equilibrium and carries them
    # over unamplified; the chaotic driver amplifies each one by at most
    # its flow's growth between two sample times.
    s = run_settings
    steps = (calls - 1) // 6
    if chaotic:
        growth = flow_growth(field, np.array(y0), raw.times)
        bound = steps * growth * (s.abs_tol + s.rel_tol * np.abs(ref).max())
    else:
        bound = steps * (s.abs_tol + s.rel_tol * np.abs(ref))
    assert np.all(np.abs(raw.states - ref) <= bound)


@settings(max_examples=25, deadline=None)
@given(run=stable_basic_runs())
def test_invariant_line_decays_exactly(run):
    # with delta_k = delta_r = delta, L = s_r*K - s_k*E obeys L' = -delta*L
    params, y0, t1, sample_step = run
    params = replace(params, delta_r=params.delta_k)
    calls, raw = rhs_calls(integrate, basic_rhs(params), y0, 0.0, t1,
                           DEFAULT_SETTINGS, sample_step)
    s_k, s_r, delta = params.s_k, params.s_r, params.delta_k
    K, E = raw.states.T
    L = s_r * K - s_k * E
    exact = L[0] * np.exp(-delta * raw.times)
    # each step's local error in (K, E) is within abs_tol + rel_tol*|y|
    # per component, so within (s_r + s_k) times that in L; L' = -delta*L
    # only shrinks errors carried forward, so they add up over the steps
    s = DEFAULT_SETTINGS
    steps = (calls - 1) // 6
    bound = steps * (s_r + s_k) * (s.abs_tol
                                   + s.rel_tol * np.abs(raw.states).max())
    assert np.all(np.abs(L - exact) <= bound)
