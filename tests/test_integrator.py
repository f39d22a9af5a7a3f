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


def reference_integrate(field, y0, t0, t1, settings, sample_step):
    """The earlier step loop, kept as the oracle for integrate's bits: numpy
    stage sums with @, an array max-norm error and a largest step of 1.0."""
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
                ys = y + h * (_A[s] @ k[:s])
                k[s] = field(ys)
            y_new = y + h * (_B @ k)
            err_vec = h * (_E @ k)
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


def assert_same_bits(field, y0, t1, settings, sample_step):
    raw = integrate(field, y0, 0.0, t1, settings, sample_step)
    times, states = reference_integrate(field, y0, 0.0, t1, settings,
                                        sample_step)
    assert np.array_equal(raw.times, times)
    assert np.array_equal(raw.states, states)


@pytest.mark.parametrize("field,y0,t1,run_settings,sample_step", [
    (decay, [1.0], 10.0, DEFAULT_SETTINGS, 0.1),
    (basic_rhs(BASELINE), [4.0, 1.0], 200.0, DEFAULT_SETTINGS, 1.0),
    (control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 200.0, DEFAULT_SETTINGS,
     0.5),
    (ne9_rhs(), [0.5, 0.0, 0.0], 20.0, CHAOS_SETTINGS, 0.01),
    (modulated_rhs(BASELINE, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0], 20.0,
     CHAOS_SETTINGS, 0.05),
], ids=["decay", "basic", "controlled", "ne9", "modulated"])
def test_same_bits_as_reference_loop(field, y0, t1, run_settings,
                                     sample_step):
    assert_same_bits(field, y0, t1, run_settings, sample_step)


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
    # landing on samples at most 1.0 apart bounds every step as the old
    # 1.0 cap did, so no step of these runs may change
    params, y0, t1, sample_step = run
    assert_same_bits(basic_rhs(params), y0, t1, DEFAULT_SETTINGS, sample_step)


def rhs_calls(field, y0, t1, sample_step):
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return field(v)

    raw = integrate(counted, y0, 0.0, t1, sample_step=sample_step)
    return calls, raw


# endpoint-only runs over T = 200: no step cap, so the controller alone sets
# each step (1 FSAL seed + 6 calls per attempted step)
ENDPOINT_RUNS = {
    "basic": (basic_rhs(BASELINE), [4.0, 1.0], 415),
    "controlled": (control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 499),
}


@pytest.mark.parametrize("name", list(ENDPOINT_RUNS))
def test_endpoint_only_rhs_calls(name):
    field, y0, expected = ENDPOINT_RUNS[name]
    calls, raw = rhs_calls(field, y0, 200.0, 200.0)
    assert calls == expected
    assert raw.times.tolist() == [0.0, 200.0]


@pytest.mark.parametrize("name", list(ENDPOINT_RUNS))
def test_endpoint_only_runs_match_scipy(name):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    field, y0, _ = ENDPOINT_RUNS[name]
    calls, raw = rhs_calls(field, y0, 200.0, 200.0)
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
