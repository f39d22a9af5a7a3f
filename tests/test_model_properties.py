"""Property tests for the model's vector fields: the K/E domain guard, and
the array form compiled from each declared system against the fields
written out by hand."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedu.errors import DomainError
from capedu.model import (
    ModelParams, _require_positive, basic_rhs, control_rhs, modulated_rhs,
    ne9_rhs,
)

PARAMS = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                     alpha=0.2, beta=0.35)
C, B, P, S_R = 0.5, 0.55, 0.47, 0.1
X, Y_, Z = 0.3, -0.2, 0.7

# every edge of the guard: signed zeros, subnormals, infinities and NaN,
# beside arbitrary doubles
stock = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0,
                     1.8e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


FIELDS = {
    "basic": (basic_rhs(PARAMS), ()),
    "modulated": (modulated_rhs(PARAMS, C, B), (X, Y_, Z)),
    "control": (control_rhs(PARAMS, P), (S_R,)),
}


def written_out(name, K, E):
    p = PARAMS
    Y = E ** p.alpha * K ** p.beta
    dK, dE = p.s_k * Y - p.delta_k * K, p.s_r * Y - p.delta_r * E
    if name == "modulated":
        return [(p.s_k + C * X) * Y - p.delta_k * K, dE,
                Y_, -X - Y_ * Z, -X * Z + 7.0 * X * X - B]
    if name == "control":
        return [dK, S_R * Y - p.delta_r * E, (1.0 - p.s_k - S_R - P) * Y]
    return [dK, dE]


@pytest.mark.parametrize("name", list(FIELDS))
@settings(max_examples=300, deadline=None)
@given(K=stock, E=stock)
def test_guard_raises_exactly_outside_the_domain(name, K, E):
    rhs, rest = FIELDS[name]
    state = np.array([K, E, *rest])
    finite = math.isfinite(K) and math.isfinite(E)
    if not (finite and K > 0 and E > 0):
        with pytest.raises(DomainError) as info:
            rhs(state)
        assert str(info.value).startswith("non-finite") == (not finite)
        return
    # numpy float64 scalar arithmetic on the same state: the field's own
    # Python-float arithmetic must give the same bits
    expected = written_out(name, state[0], state[1])
    assert np.array_equal(rhs(state), np.array(expected))


# The four fields as closures written out by hand, the form they had before
# each system was declared once: the oracle for the declared expressions.

def written_basic(params):
    s_k, s_r = params.s_k, params.s_r
    d_k, d_r, a, b = params.delta_k, params.delta_r, params.alpha, params.beta

    def rhs(v):
        K, E = v.tolist()
        _require_positive(K, E)
        Y = E ** a * K ** b
        return [s_k * Y - d_k * K, s_r * Y - d_r * E]

    return rhs


def written_ne9(b):
    def rhs(v):
        x, y, z = v.tolist()
        return [y, -x - y * z, -x * z + 7.0 * x * x - b]

    return rhs


def written_modulated(params, c, b):
    s_k, s_r = params.s_k, params.s_r
    d_k, d_r, al, be = params.delta_k, params.delta_r, params.alpha, params.beta

    def rhs(v):
        K, E, x, y, z = v.tolist()
        _require_positive(K, E)
        Y = E ** al * K ** be
        return [
            (s_k + c * x) * Y - d_k * K,
            s_r * Y - d_r * E,
            y, -x - y * z, -x * z + 7.0 * x * x - b,
        ]

    return rhs


def written_control(params, p):
    s_k = params.s_k
    d_k, d_r, a, b = params.delta_k, params.delta_r, params.alpha, params.beta

    def rhs(v):
        K, E, s_r = v.tolist()
        _require_positive(K, E)
        Y = E ** a * K ** b
        return [
            s_k * Y - d_k * K,
            s_r * Y - d_r * E,
            (1.0 - s_k - s_r - p) * Y,
        ]

    return rhs


positive = st.floats(min_value=1e-6, max_value=1e6)
unit = st.floats(min_value=0.01, max_value=0.99)
real = st.floats(min_value=-50.0, max_value=50.0)


@st.composite
def field_pairs(draw, name):
    """The compiled and the written-out field on the same drawn constants,
    and a drawn state with positive stocks."""
    s_k = draw(st.floats(0.0, 0.9))
    params = ModelParams(s_k=s_k, s_r=draw(st.floats(0.01, 1.0 - s_k)),
                         delta_k=draw(positive), delta_r=draw(positive),
                         alpha=draw(unit), beta=draw(unit))
    c, b = draw(real), draw(real)
    p = draw(st.floats(0.0, 1.0 - s_k, exclude_min=True, exclude_max=True))
    stocks = [draw(positive), draw(positive)]
    if name == "basic":
        pair, rest = (basic_rhs(params), written_basic(params)), []
    elif name == "ne9":
        pair, stocks = (ne9_rhs(b), written_ne9(b)), []
        rest = [draw(real) for _ in range(3)]
    elif name == "modulated":
        pair = (modulated_rhs(params, c, b), written_modulated(params, c, b))
        rest = [draw(real) for _ in range(3)]
    else:
        pair, rest = (control_rhs(params, p), written_control(params, p)), [
            draw(real)]
    return pair, np.array(stocks + rest)


@pytest.mark.parametrize("name", ["basic", "ne9", "modulated", "control"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compiled_field_equals_the_written_out_one(name, data):
    (compiled, written), state = data.draw(field_pairs(name))
    got, want = compiled(state), written(state)
    assert type(got) is list and len(got) == len(state)
    assert np.array(got).tobytes() == np.array(want).tobytes()
