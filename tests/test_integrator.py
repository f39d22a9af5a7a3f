import ast
import builtins
import math
import reprlib
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capedu import integrator
from capedu.errors import (
    DomainError, StepLimitExceeded, ValidationError,
)
from capedu.integrator import (
    _A, _B, _E, _INITIAL_STEP, _MAX_FACTOR, _MIN_FACTOR, _ORDER_EXP, _SAFETY,
    CHAOS_SETTINGS, DEFAULT_SETTINGS, IntegratorSettings, _sample_grid,
    _opaque, _step_for, _step_source, integrate,
)
from capedu.model import (
    BASIC, CONTROLLED, CONTROLLED_Q, MODULATED, NE9, ModelParams, basic_rhs,
    control_rhs, modulated_rhs, ne9_rhs,
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


def test_stats_count_the_hand_counted_run():
    # y' = -y on [0, 1] at sample 0.1: 22 steps, all accepted (the
    # benchmark's hand count), from the initial step to a ~0.093 step
    stats = integrate(decay, [1.0], 0.0, 1.0, sample_step=0.1).stats
    assert (stats.steps, stats.accepted, stats.domain_rejected) == (22, 22, 0)
    assert stats.h_min == _INITIAL_STEP
    assert stats.h_max == pytest.approx(0.0927, abs=1e-4)
    # decay returns an ndarray, whose elements are numpy floats
    assert type(stats.h_min) is float and type(stats.h_max) is float
    assert stats.wall_s > 0.0


def test_stats_count_a_landing_step_and_no_step():
    # the initial step of 1e-3, then one shortened to land on t1
    stats = integrate(decay, [1.0], 0.0, 1.5e-3, sample_step=1.5e-3).stats
    assert (stats.h_min, stats.h_max) == pytest.approx((5e-4, 1e-3))
    # t1 within the landing tolerance of t0: no step is taken
    stats = integrate(decay, [1.0], 0.0, 1e-15, sample_step=0.1).stats
    assert (stats.steps, stats.accepted) == (0, 0)
    assert math.isnan(stats.h_min) and math.isnan(stats.h_max)


def test_step_limit_exceeded(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 3)
    with pytest.raises(StepLimitExceeded, match="max_steps=3 reached"):
        integrate(decay, [1.0], 0.0, 100.0, sample_step=100.0)


@pytest.mark.parametrize("sample_step,samples", [
    (1e-300, "1e+302"), (1e-6, "1e+08"),
])
def test_sample_grid_beyond_the_step_budget_is_refused(sample_step, samples,
                                                       monkeypatch):
    # each sample takes at least one step, so the run could never finish;
    # it is refused before its grid is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(ValidationError) as info:
        integrate(decay, [1.0], 0.0, 100.0, sample_step=sample_step)
    assert str(info.value) == (f"sample_step: {sample_step!r} gives {samples} "
                               f"samples, more than the step budget of "
                               f"10000000")


def test_sample_grid_at_the_step_budget_is_allocated(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 3)
    assert len(_sample_grid(0.0, 0.75, 0.25)) == 4  # 3 samples, 3 steps
    with pytest.raises(ValidationError, match="gives 4 samples"):
        _sample_grid(0.0, 1.0, 0.25)


def test_run_shorter_than_its_sample_step_keeps_t0():
    # t1 lies within 1e-12 * max(1, |t1|) of t0: the only grid point, t0,
    # once gave way to t1
    t0, t1 = 1e6, 1e6 + 1e-7
    raw = integrate(decay, [1.0], t0, t1, sample_step=0.1)
    assert raw.times.tolist() == [t0, t1]
    assert raw.states[0, 0] == 1.0
    assert abs(raw.states[1, 0] - math.exp(t0 - t1)) < 1e-15


@settings(max_examples=300, deadline=None)
@given(t0=st.floats(-1e3, 1e3), exponent=st.floats(-15.0, 3.0),
       samples=st.floats(1e-3, 1e4))
def test_sample_grid_runs_from_t0_to_t1(t0, exponent, samples):
    # sample steps from 1,000 horizons to 1e-4 of one, all within the step
    # budget; a step below the spacing of doubles near t0 merges samples
    t1 = t0 + 10.0 ** exponent
    assume(t1 > t0)
    grid = _sample_grid(t0, t1, (t1 - t0) / samples)
    assert grid[0] == t0 and grid[-1] == t1
    assert len(grid) >= 2
    assert np.all(grid[1:] > grid[:-1])


def test_step_size_floor_stops_a_field_no_step_can_follow():
    # the field jumps from 1e300 to -1e300 at y = 1, so every step across
    # it is rejected; without a floor h shrinks toward underflow
    def field(v):
        return [1e300 if v[0] < 1 else -1e300]

    with pytest.raises(StepLimitExceeded) as info:
        integrate(field, [0.0], 0.0, 1.0, sample_step=1.0)
    assert str(info.value) == ("step size fell below the floor 3.55271e-15 "
                               "(from t=0 with h=6.5536e-15, y=[0])")


def test_non_finite_state_detected():
    def field(y):
        if y[0] > 100.0:
            return np.array([np.nan])
        return y.copy()

    with pytest.raises(DomainError):
        integrate(field, [1.0], 0.0, 20.0, sample_step=20.0)


def test_field_must_return_one_value_per_state_component():
    with pytest.raises(ValidationError, match=r"^field: must be a 1-D series "
                       r"of real numbers of length 2, got \[0.0\]") as info:
        integrate(lambda y: [0.0], [1.0, 2.0], 0.0, 1.0, sample_step=0.5)
    assert info.value.field == "field"
    assert isinstance(info.value, ValueError)  # what callers may catch


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("call", [1, 2, 4, 7, 8, 20])
def test_wrong_length_at_any_stage_names_the_step(call, length):
    # call 1 seeds FSAL, calls 2-7 are the first step's stages and 8 is the
    # second step's first new stage
    calls = 0

    def field(y):
        nonlocal calls
        calls += 1
        return [0.5] * (length if calls == call else 2)

    with pytest.raises(ValidationError) as info:
        integrate(field, [1.0, 2.0], 0.0, 1.0, sample_step=0.5)
    message = str(info.value)
    assert message.startswith(f"field: must be a 1-D series of real numbers "
                              f"of length 2, got {[0.5] * length} (from t=")
    assert "with h=" in message
    assert calls == call


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", [
    lambda y: -y.reshape(-1, 1),
    lambda y: 1.0,
    lambda y: np.array(-y[0]),
], ids=["column", "float", "0-d array"])
def test_badly_shaped_result_names_its_shape_and_the_start(field, n):
    calls = 0

    def counted(y):
        nonlocal calls
        calls += 1
        return field(y)

    with pytest.raises(ValidationError) as info:
        integrate(counted, [1.0] * n, 0.0, 1.0, sample_step=0.5)
    result = reprlib.repr(field(np.ones(n)))  # its repr shows its shape
    assert str(info.value).startswith(
        f"field: must be a 1-D series of real numbers of length {n}, got "
        f"{result} (from t=0 with h=")
    assert calls == 1  # the FSAL seed; no extra call checks it


# every result is checked, not only the first: each run's field returns its
# results in turn, and the last is refused at the step that asked for it
LATER_BAD_RESULTS = {
    "2-D ndarray": ([1.0], [[0.5], [0.5], np.array([[0.5]])], 3,
                    "array([[0.5]])"),
    "nested list": ([1.0, 2.0], [np.array([0.5, 0.5]), [[0.5], [0.5]]], 2,
                    "[[0.5], [0.5]]"),
    "None": ([1.0], [[0.5], [None]], 2, "[None]"),
    "None of two": ([1.0, 2.0], [[0.5, 1.0], [None, 1.0]], 2,
                    "[None, 1.0]"),
}


@pytest.mark.parametrize("name", list(LATER_BAD_RESULTS))
def test_later_bad_result_names_the_step(name):
    y0, results, call, what = LATER_BAD_RESULTS[name]
    calls = 0

    def field(y):
        nonlocal calls
        calls += 1
        return results[min(calls, len(results)) - 1]

    with pytest.raises(ValidationError) as info:
        integrate(field, y0, 0.0, 1.0, sample_step=0.5)
    assert info.value.field == "field"
    assert str(info.value).startswith(
        f"field: must be a 1-D series of real numbers of length {len(y0)}, "
        f"got {what} (from t=0 with h=0.001, y=[")
    assert calls == call


def test_start_outside_the_domain_names_the_step():
    # the march seeds FSAL itself, so the first evaluation names it too
    with pytest.raises(DomainError) as info:
        integrate(basic_rhs(BASELINE), [-1.0, 1.0], 0.0, 1.0)
    assert str(info.value).endswith("(from t=0 with h=0.001, y=[-1, 1])")


def test_value_error_from_the_field_passes_through():
    def field(y):
        if y[0] > 1.5:
            raise ValueError("field refuses")
        return [1.0, 0.0]

    with pytest.raises(ValueError, match="^field refuses$"):
        integrate(field, [1.0, 2.0], 0.0, 1.0, sample_step=0.5)


def test_non_finite_initial_state():
    with pytest.raises(ValidationError, match="^y0: must be finite$"):
        integrate(decay, [np.nan], 0.0, 1.0, sample_step=0.5)


@pytest.mark.parametrize("y0", [[[1.0]], [], [[1.0], [1.0, 2.0]], ["a"]],
                         ids=["2-D", "empty", "ragged", "text"])
def test_start_must_be_a_non_empty_vector(y0):
    with pytest.raises(ValidationError) as exc:
        integrate(decay, y0, 0.0, 1.0, sample_step=0.5)
    assert exc.value.field == "y0"
    assert str(exc.value) == ("y0: must be a 1-D series of real numbers of "
                              f"length >= 1, got {y0!r}")


@pytest.mark.parametrize("field,states", [
    (basic_rhs(BASELINE), "2 states (K, E)"),
    (control_rhs(BASELINE, 0.47), "3 states (K, E, s_r)"),
    (modulated_rhs(BASELINE, 0.5), "5 states (K, E, x, y, z)"),
], ids=["basic", "controlled", "modulated"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_model_field_start_of_the_wrong_length_names_its_system(
        field, states, extra):
    # refused before the field's first call, which would fail to unpack it
    n = len(field.system.states) + extra
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return field(v)

    counted.system, counted.constants = field.system, field.constants
    with pytest.raises(ValidationError) as info:
        integrate(counted, [1.0] * n, 0.0, 1.0)
    assert str(info.value) == (f"y0: has {n} components, the "
                               f"{field.system.name} system has {states}")
    assert calls == 0


@pytest.mark.parametrize("t0", [math.nan, -math.inf])
def test_non_finite_start_time_is_named(t0):
    with pytest.raises(ValidationError) as info:
        integrate(decay, [1.0], t0, 1.0, sample_step=0.5)
    assert str(info.value) == f"t0: must be finite, got {t0}"


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


def test_domain_error_names_t_h_and_state():
    # s_k + c x < 0 drives K to 0 in finite time, a true exit that no
    # shorter step avoids: the last stage outside the domain is at the floor
    field = modulated_rhs(BASELINE, -5.0)
    messages = []
    for path in (field, lambda v: field(v)):
        with pytest.raises(DomainError) as info:
            integrate(path, [4.0, 1.0, 0.5, 0.0, 0.0], 0.0, 50.0,
                      CHAOS_SETTINGS, 1.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("K and E must stay positive")
    assert "(from t=7.59971 with h=2.08916e-13, y=[2.47706e-20, " in messages[0]


def test_non_finite_state_names_t_h_and_state():
    def field(y):
        return np.array([np.nan]) if y[0] > 2.0 else y.copy()

    with pytest.raises(DomainError, match=r"t=\S+ with h=\S+, y=\[\S+\]"):
        integrate(field, [1.0], 0.0, 20.0, sample_step=20.0)


def test_step_that_no_longer_moves_t_ends_the_run():
    # y' = y^2 from y = 1 blows up at t = 1: accepted steps shrink toward
    # it until t + h == t, long before y overflows
    with pytest.raises(StepLimitExceeded, match=(
            r"^step size (\S+) no longer moves t \(from t=1 with h=\1, "
            r"y=\[5\.7367e\+14\]\)$")):
        integrate(lambda y: [y[0] * y[0]], [1.0], 0.0, 2.0, sample_step=2.0)


@pytest.mark.parametrize("error", [DomainError, StepLimitExceeded])
def test_field_errors_of_the_march_name_the_step(error):
    # the march's one handler names the step for the field's errors as well
    def field(y):
        if y[0] < 0.5:
            raise error("field gave up")
        return -y

    with pytest.raises(error, match=r"^field gave up \(from t=\S+ with "
                                    r"h=\S+, y=\[\S+\]\)$") as info:
        integrate(field, [1.0], 0.0, 5.0)
    assert type(info.value.__cause__) is error


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


def reference_integrate(field, y0, t0, t1, settings, sample_step,
                        rejected=None):
    """The step loop written once over the rows of _A, _B and _E in Python
    floats, summing in tableau order: the oracle for the bits of
    integrate's generated march.  Same controller and landing rule.  The
    start time of each rejected step is appended to rejected, if given."""
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
                if rejected is not None:
                    rejected.append(t)
        t = t_target
        out.append(y)
    return grid, np.array(out)


def counts(raw):
    """A run's stats but its wall time, which two runs do not share."""
    return replace(raw.stats, wall_s=0.0)


def assert_same_bits(field, y0, t1, settings, sample_step, t0=0.0):
    raw = integrate(field, y0, t0, t1, settings, sample_step)
    times, states = reference_integrate(field, y0, t0, t1, settings,
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


@pytest.mark.parametrize("t0", [-50.0, 1e6])
@pytest.mark.parametrize("field,y0,horizon,run_settings,sample_step", [
    (decay, [1.0], 60.0, DEFAULT_SETTINGS, 0.1),
    (basic_rhs(BASELINE), [4.0, 1.0], 100.0, DEFAULT_SETTINGS, 1.0),
    (ne9_rhs(), [0.5, 0.0, 0.0], 60.0, CHAOS_SETTINGS, 0.05),
], ids=["decay", "basic", "ne9"])
def test_same_bits_as_reference_loop_from_any_start(field, y0, horizon,
                                                    run_settings, sample_step,
                                                    t0):
    # from t0 = -50 the grid crosses |t| = 1, where each sample's landing
    # tolerance 1e-14 * max(1, |t|) changes form; at 1e6 it is 1e-8
    assert_same_bits(field, y0, t0 + horizon, run_settings, sample_step,
                     t0=t0)


def signed_zero_field():
    """A field whose stages 1, 4 and 6, the ones _E weighs positively,
    return -0.0 and the others 0.0 in component 0, and -0.0 in component
    1; stages count from its first call, the FSAL seed."""
    calls = 0

    def field(v):
        nonlocal calls
        calls += 1
        stage = (calls - 2) % 6 + 2 if calls > 1 else 1
        return [-0.0 if stage in (1, 4, 6) else 0.0, -0.0]

    return field


def test_signed_zero_error_takes_the_same_steps_and_bits():
    # abs is a sign test in the march, so an error term of -0.0 stays -0.0
    # where the reference's abs gives 0.0; the controller must treat both
    # as 0.  Every term of the first step's error sum in component 0 is
    # -0.0, and so is the sum.
    stages = [[-0.0 if s in (1, 4, 6) else 0.0] for s in range(1, 8)]
    assert math.copysign(1.0, weighted_sum(_E, stages, 0)) == -1.0
    args = ([1.0, -0.0], 0.0, 10.0, DEFAULT_SETTINGS, 2.5)
    calls, raw = rhs_calls(integrate, signed_zero_field(), *args)
    ref_calls, (times, states) = rhs_calls(reference_integrate,
                                           signed_zero_field(), *args)
    assert calls == ref_calls
    assert raw.times.tobytes() == times.tobytes()
    assert raw.states.tobytes() == states.tobytes()  # signs of zeros too


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", range(1, 9))
def test_non_finite_stage_is_found_at_any_call(call, bad):
    # the march sums only yn, k2 and k7 to test finiteness: a non-finite
    # value at any other stage reaches yn through _B.  This field ignores
    # its input, so only that test can see the value.  Call 1 seeds FSAL,
    # calls 2-7 are the first step's stages and 8 is the second step's k2.
    calls = 0

    def field(y):
        nonlocal calls
        calls += 1
        return [bad if calls == call else 0.5, 0.5]

    with pytest.raises(DomainError, match=r"^non-finite state in the "
                                          r"step \(from t="):
        integrate(field, [1.0, 2.0], 0.0, 1.0, sample_step=0.5)
    assert calls == (7 if call <= 7 else 13)  # the step's last stage


# the calls a healthy step may make: the domain guard's _require_positive,
# which only raises, and the line of any other field: the field on an
# ndarray, and the type and length tests of its result
HEALTHY_CALLS = {"_require_positive", "field", "np.array", "type", "len"}


def healthy_path(source: str) -> ast.FunctionDef:
    """The march with what runs only on the way to a raise cut out: the
    body of each if that raises, the operands after the first of its and,
    the except handlers, and the require_series of an opaque field's line."""
    march = ast.parse(source).body[0]
    for node in ast.walk(march):
        if isinstance(node, ast.If) and any(
                isinstance(n, ast.Raise) for s in node.body
                for n in ast.walk(s)):
            node.body = [ast.Pass()]
            if isinstance(node.test, ast.BoolOp) and isinstance(
                    node.test.op, ast.And):
                node.test = node.test.values[0]
        elif isinstance(node, ast.ExceptHandler):
            node.body = [ast.Pass()]
        elif isinstance(node, ast.IfExp) and "require_series(" in \
                ast.unparse(node.orelse):
            node.orelse = node.body
    return march


@pytest.mark.parametrize("system", [
    BASIC, CONTROLLED, NE9, MODULATED, _opaque(2),
], ids=["basic", "controlled", "ne9", "modulated", "opaque"])
def test_healthy_step_calls_only_the_field(system):
    source = _step_source(system)
    assert "all(map(finite, (" in source
    march = healthy_path(source)
    # the march's own lines: a test of the field's result is the field's
    own = source
    for line in system.lines:
        own = own.replace(line, "pass")
    text = ast.unparse(healthy_path(own))
    for call in ("abs(", "max(", "min(", "len(", "finite("):
        assert call not in text
    # the body of the loop over the samples: every step, and each store
    loop, = [node for node in march.body[-1].body if isinstance(node, ast.For)]
    called = {ast.unparse(node.func) for statement in loop.body
              for node in ast.walk(statement) if isinstance(node, ast.Call)}
    assert called <= HEALTHY_CALLS
    assert ("field" in called) == (system is _opaque(2))


# free-stepped to the endpoint, where the controller rejects steps: ne9
# over T = 100 and the modulated system over T = 200, with their attempted
# and rejected steps
REJECTING_RUNS = {
    "ne9": (ne9_rhs(), [0.5, 0.0, 0.0], 100.0, 3_602, 40),
    "modulated": (modulated_rhs(BASELINE, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0],
                  200.0, 7_272, 92),
}


@pytest.mark.parametrize("name", list(REJECTING_RUNS))
def test_same_bits_as_reference_loop_through_rejected_steps(name):
    field, y0, t1, attempts, rejections = REJECTING_RUNS[name]
    args = (y0, 0.0, t1, CHAOS_SETTINGS, t1)
    calls, raw = rhs_calls(integrate, field, *args)
    rejected = []
    times, states = reference_integrate(field, *args, rejected=rejected)
    assert calls == 1 + 6 * attempts
    assert len(rejected) == rejections  # the reject branch ran
    stats = raw.stats
    assert (stats.steps, stats.steps - stats.accepted,
            stats.domain_rejected) == (attempts, rejections, 0)
    assert np.array_equal(raw.times, times)
    assert np.array_equal(raw.states, states)
    # the march's own inlined path takes the same steps
    inlined = integrate(field, *args)
    assert np.array_equal(inlined.states, states)
    assert counts(inlined) == counts(raw)


def test_list_and_ndarray_fields_give_the_same_bits():
    field = modulated_rhs(BASELINE, 0.5)
    args = ([4.0, 1.0, 0.5, 0.0, 0.0], 0.0, 20.0, CHAOS_SETTINGS, 0.05)
    as_list = integrate(field, *args)
    as_array = integrate(lambda v: np.array(field(v)), *args)
    assert np.array_equal(as_list.states, as_array.states)


@pytest.mark.parametrize("convert", [np.array, lambda k: list(np.array(k))],
                         ids=["ndarray", "numpy scalars"])
def test_numpy_results_run_the_march_on_floats(convert):
    field = ne9_rhs()
    args = ([0.5, 0.0, 0.0], 0.0, 20.0, CHAOS_SETTINGS, 1.0)
    as_list = integrate(lambda v: field(v), *args)
    calls, raw = rhs_calls(integrate, lambda v: convert(field(v)), *args)
    assert calls == 1 + 6 * raw.stats.steps  # one call of the field per stage
    assert np.array_equal(raw.states, as_list.states)
    assert counts(raw) == counts(as_list)
    # no cast after the march: its own step sizes are Python floats
    assert type(raw.stats.h_min) is float and type(raw.stats.h_max) is float


def test_numpy_params_times_and_tolerances_run_on_floats():
    as_float = integrate(control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 0.0,
                         200.0)
    params = ModelParams(*map(np.float64, astuple(BASELINE)))
    field = control_rhs(params, np.float64(0.47))
    assert all(type(c) is float for c in field.constants)
    settings = IntegratorSettings(*map(np.float64, astuple(DEFAULT_SETTINGS)))
    raw = integrate(field, np.array([4.0, 1.0, 0.1]), np.float64(0.0),
                    np.float64(200.0), settings, np.float64(0.1))
    assert np.array_equal(raw.states, as_float.states)
    assert counts(raw) == counts(as_float)
    assert type(raw.stats.h_min) is float and type(raw.stats.h_max) is float


def test_overflow_of_a_numpy_field_is_a_non_finite_state():
    # on numpy scalars the march's sums would overflow with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            integrate(lambda y: np.array([1e300]), [1e300], 0.0, 1e10,
                      sample_step=1e10)


# the four model systems, whose expressions integrate inlines into the step;
# behind a lambda the same field is opaque and called once per stage, as
# the benchmark's tracer calls it
SYSTEM_RUNS = {
    "basic": (basic_rhs(BASELINE), [4.0, 1.0], 200.0, DEFAULT_SETTINGS, 1.0),
    "controlled": (control_rhs(BASELINE, 0.47), [4.0, 1.0, 0.1], 200.0,
                   DEFAULT_SETTINGS, 0.5),
    "ne9": (ne9_rhs(), [0.5, 0.0, 0.0], 20.0, CHAOS_SETTINGS, 0.01),
    "modulated": (modulated_rhs(BASELINE, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0],
                  20.0, CHAOS_SETTINGS, 0.05),
}


@pytest.mark.parametrize("name", list(SYSTEM_RUNS))
def test_inlined_and_opaque_fields_give_the_same_bits(name):
    field, y0, t1, run_settings, sample_step = SYSTEM_RUNS[name]
    args = (y0, 0.0, t1, run_settings, sample_step)
    inlined = integrate(field, *args)
    calls, opaque = rhs_calls(integrate, field, *args)
    assert calls > 1  # the wrapper took the opaque path
    assert np.array_equal(inlined.times, opaque.times)
    assert np.array_equal(inlined.states, opaque.states)
    assert counts(inlined) == counts(opaque)


FAST_DECAY = replace(BASELINE, delta_k=50.0)


@pytest.mark.parametrize("field,y0", [
    (basic_rhs(FAST_DECAY), [4.0, 1.0]),
    (control_rhs(FAST_DECAY, 0.47), [4.0, 1.0, 0.1]),
    (modulated_rhs(FAST_DECAY, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0]),
], ids=["basic", "controlled", "modulated"])
def test_inlined_and_opaque_fields_raise_the_same_domain_error(
        field, y0, monkeypatch):
    # decay this fast sends the first stage of a 0.5 step below K = 0, on
    # either path; the stage rejects the step, and both runs finish the same
    monkeypatch.setattr(integrator, "_INITIAL_STEP", 0.5)
    args = (y0, 0.0, 10.0, DEFAULT_SETTINGS, 1.0)
    inlined = integrate(field, *args)
    calls, opaque = rhs_calls(integrate, field, *args)
    assert calls % 6 != 1  # an attempt stopped at its failing stage
    assert np.array_equal(inlined.times, opaque.times)
    assert np.array_equal(inlined.states, opaque.states)
    assert np.all(inlined.states[:, :2] > 0)
    assert counts(inlined) == counts(opaque)
    assert inlined.stats.domain_rejected > 0


def test_wrapped_model_field_of_the_wrong_length_names_the_step():
    field = basic_rhs(BASELINE)
    with pytest.raises(ValidationError, match=r"^field: must be a 1-D "
                       r"series of real numbers of length 2, got \[.*\] "
                       r"\(from t=0 with h="):
        integrate(lambda v: field(v)[:1], [4.0, 1.0], 0.0, 1.0)


def test_generated_steps_stay_readable(monkeypatch):
    inlined = _step_source(BASIC)
    assert "field(" not in inlined
    # the FSAL seed, then one evaluation per stage: 1 + 6k calls for k steps
    assert inlined.count("_require_positive(K, E)") == 7
    assert _step_source(_opaque(2)).count("field(") == 7
    integrate(basic_rhs(BASELINE), [4.0, 1.0], 0.0, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(builtins, "compile", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    # other constants, same system: the step and array form are only bound
    integrate(basic_rhs(replace(BASELINE, s_k=0.3)), [2.0, 3.0], 0.0, 1.0)


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


@st.composite
def dissipative_fields(draw, n):
    """y_i' = b_i + sum_j a_ij y_j - q_i y_i |y_i|, with a diagonally
    dominant negative linear part, so every orbit stays bounded; returned
    as a list, a tuple or an ndarray."""
    coef = st.floats(-0.5, 0.5)
    a = [[draw(coef) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] = -draw(st.floats(0.1, 2.0)) - sum(map(abs, a[i]))
    b = [draw(coef) for _ in range(n)]
    q = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
         for _ in range(n)]
    wrap = draw(st.sampled_from([list, tuple, np.array]))

    def field(y):
        return wrap([b[i] + sum(a[i][j] * y[j] for j in range(n))
                     - q[i] * y[i] * abs(y[i]) for i in range(n)])

    y0 = [draw(st.floats(-3.0, 3.0)) for _ in range(n)]
    return field, y0, draw(st.floats(0.5, 5.0)), draw(st.floats(0.05, 1.0))


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_step_same_bits_in_every_dimension(n, data):
    field, y0, t1, sample_step = data.draw(dissipative_fields(n))
    args = (y0, 0.0, t1, DEFAULT_SETTINGS, sample_step)
    calls, raw = rhs_calls(integrate, field, *args)
    ref_calls, (times, states) = rhs_calls(reference_integrate, field, *args)
    assert calls == ref_calls
    assert np.array_equal(raw.times, times)
    assert np.array_equal(raw.states, states)


def test_step_built_once_per_dimension():
    # one march per System, and one opaque System per dimension
    assert _opaque(4) is _opaque(4)
    assert _step_for(_opaque(4)) is _step_for(_opaque(4))
    assert _step_for(_opaque(4)) is not _step_for(_opaque(6))
    assert _step_for(BASIC) is _step_for(BASIC)
    assert _step_for(BASIC) is not _step_for(_opaque(2))


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
    # the same run with s_r solved exactly in Q: no fast -Y mode, 59 steps
    "controlled_q": (CONTROLLED_Q.bind(BASELINE, s_rs=1.0 - 0.4 - 0.47,
                                       u0=0.1 - (1.0 - 0.4 - 0.47)),
                     [4.0, 1.0, 0.0], 355),
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
