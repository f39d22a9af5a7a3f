"""Property tests for the K/E domain guard of the economy vector fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedu.errors import DomainError
from capedu.model import ModelParams, basic_rhs, control_rhs, modulated_rhs

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
