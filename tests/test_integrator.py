import ast
import builtins
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capedu import integrator
from capedu.errors import (
    DomainError, NonFiniteState, StepLimitExceeded, ValidationError,
)
from capedu.integrator import (
    _A, _B, _E, _INITIAL_STEP, _MAX_FACTOR, _MIN_FACTOR, _ORDER_EXP, _SAFETY,
    CHAOS_SETTINGS, DEFAULT_SETTINGS, IntegratorSettings, _sample_grid,
    _step_for, integrate, step_source,
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

    with pytest.raises(NonFiniteState):
        integrate(field, [1.0], 0.0, 20.0, sample_step=20.0)


def test_field_must_return_one_value_per_state_component():
    with pytest.raises(ValueError, match="field returned 1 values"):
        integrate(lambda y: [0.0], [1.0, 2.0], 0.0, 1.0, sample_step=0.5)


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

    with pytest.raises(ValueError) as info:
        integrate(field, [1.0, 2.0], 0.0, 1.0, sample_step=0.5)
    message = str(info.value)
    assert message.startswith(f"field returned {length} values for a state "
                              f"of 2 (from t=")
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

    with pytest.raises(ValueError) as info:
        integrate(counted, [1.0] * n, 0.0, 1.0, sample_step=0.5)
    shape = np.shape(field(np.ones(n)))
    assert str(info.value).startswith(
        f"field returned a result of shape {shape} for a state of {n} "
        f"(from t=0 with h=")
    assert calls == 1  # the FSAL seed; no extra call checks it


def test_value_error_from_the_field_passes_through():
    def field(y):
        if y[0] > 1.5:
            raise ValueError("field refuses")
        return [1.0, 0.0]

    with pytest.raises(ValueError, match="^field refuses$"):
        integrate(field, [1.0, 2.0], 0.0, 1.0, sample_step=0.5)


def test_non_finite_initial_state():
    with pytest.raises(NonFiniteState):
        integrate(decay, [np.nan], 0.0, 1.0, sample_step=0.5)


@pytest.mark.parametrize("y0", [[[1.0]], []], ids=["2-D", "empty"])
def test_start_must_be_a_non_empty_vector(y0):
    with pytest.raises(ValueError) as exc:
        integrate(decay, y0, 0.0, 1.0, sample_step=0.5)
    assert str(exc.value) == "y0 must be a non-empty 1-D state vector"


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

    with pytest.raises(NonFiniteState, match=r"^non-finite state in the "
                                             r"step \(from t="):
        integrate(field, [1.0, 2.0], 0.0, 1.0, sample_step=0.5)
    assert calls == (7 if call <= 7 else 13)  # the step's last stage


# the calls a healthy step may make: the field (an opaque one on an
# ndarray), and the domain guard's _require_positive, which only raises
HEALTHY_CALLS = {"field", "array", "_require_positive"}


def healthy_path(source: str) -> ast.FunctionDef:
    """The march with what runs only on the way to a raise cut out: the
    body of each if that raises, the operands after the first of its and,
    and the except handlers."""
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
    return march


@pytest.mark.parametrize("field,n", [
    (basic_rhs(BASELINE), 2), (control_rhs(BASELINE, 0.47), 3),
    (ne9_rhs(), 3), (modulated_rhs(BASELINE, 0.5), 5), (decay, 2),
], ids=["basic", "controlled", "ne9", "modulated", "opaque"])
def test_healthy_step_calls_only_the_field(field, n):
    source = step_source(field, n)
    assert "all(map(finite, (" in source and "len(k)" in source
    march = healthy_path(source)
    text = ast.unparse(march)
    for call in ("abs(", "max(", "min(", "len(", "finite("):
        assert call not in text
    # the body of the loop over the samples: every step, and each store
    loop, = [node for node in march.body[-1].body if isinstance(node, ast.For)]
    called = {node.func.id for statement in loop.body
              for node in ast.walk(statement) if isinstance(node, ast.Call)}
    assert called <= HEALTHY_CALLS
    assert ("field" in called) == (field is decay)


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
    assert np.array_equal(raw.times, times)
    assert np.array_equal(raw.states, states)
    # the march's own inlined path takes the same steps
    assert np.array_equal(integrate(field, *args).states, states)


def test_list_and_ndarray_fields_give_the_same_bits():
    field = modulated_rhs(BASELINE, 0.5)
    args = ([4.0, 1.0, 0.5, 0.0, 0.0], 0.0, 20.0, CHAOS_SETTINGS, 0.05)
    as_list = integrate(field, *args)
    as_array = integrate(lambda v: np.array(field(v)), *args)
    assert np.array_equal(as_list.states, as_array.states)


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


FAST_DECAY = replace(BASELINE, delta_k=50.0)


@pytest.mark.parametrize("field,y0", [
    (basic_rhs(FAST_DECAY), [4.0, 1.0]),
    (control_rhs(FAST_DECAY, 0.47), [4.0, 1.0, 0.1]),
    (modulated_rhs(FAST_DECAY, 0.5), [4.0, 1.0, 0.5, 0.0, 0.0]),
], ids=["basic", "controlled", "modulated"])
def test_inlined_and_opaque_fields_raise_the_same_domain_error(
        field, y0, monkeypatch):
    # decay this fast sends the first stage of a 0.5 step below K = 0
    monkeypatch.setattr(integrator, "_INITIAL_STEP", 0.5)
    messages = []
    for path in (field, lambda v: field(v)):
        with pytest.raises(DomainError) as info:
            integrate(path, y0, 0.0, 10.0, sample_step=1.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("K and E must stay positive")
    assert "(from t=0 with h=0.5, y=[4, 1" in messages[0]


def test_wrapped_model_field_of_the_wrong_length_names_the_step():
    field = basic_rhs(BASELINE)
    with pytest.raises(ValueError, match=r"^field returned 1 values for a "
                                         r"state of 2 \(from t=0 with h="):
        integrate(lambda v: field(v)[:1], [4.0, 1.0], 0.0, 1.0)


def test_generated_steps_stay_readable(monkeypatch):
    inlined = step_source(basic_rhs(BASELINE), 2)
    assert "field(" not in inlined
    assert inlined.count("_require_positive(K, E)") == 6
    # one call per stage after the FSAL seed: 1 + 6k calls for k steps
    assert step_source(decay, 2).count("field(") == 6
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
    assert _step_for(4) is _step_for(4)
    assert _step_for(4) is not _step_for(6)


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
