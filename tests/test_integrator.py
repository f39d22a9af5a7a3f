import numpy as np
import pytest

from capedu import integrator
from capedu.errors import DomainError, NonFiniteState, StepLimitExceeded
from capedu.integrator import IntegratorSettings, integrate
from capedu.model import ModelParams, basic_rhs


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
