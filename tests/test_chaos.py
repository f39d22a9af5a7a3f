import numpy as np
import pytest

from capedu.chaos import running_average, simulate_modulated, simulate_ne9
from capedu.errors import ValidationError
from capedu.integrator import CHAOS_SETTINGS, integrate
from capedu.model import EconState, ModelParams, basic_rhs

FIG_CHAOS = dict(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.15,
                 alpha=0.2, beta=0.35)


@pytest.fixture(scope="module")
def ne9_run():
    return simulate_ne9(horizon=100.0)


class TestRunningAverage:
    def test_constant_series(self):
        t = np.linspace(0.0, 10.0, 101)
        avg = running_average(t, np.full_like(t, 0.3))
        assert np.allclose(avg.values, 0.3, atol=1e-14)

    def test_linear_ramp(self):
        t = np.linspace(0.0, 10.0, 1001)
        avg = running_average(t, t)
        assert np.allclose(avg.values, avg.times / 2, rtol=1e-10)

    def test_needs_two_samples_from_zero(self):
        with pytest.raises(ValueError):
            running_average([0.0], [1.0])
        with pytest.raises(ValueError):
            running_average([1.0, 2.0], [1.0, 1.0])

    def test_additive_over_windows(self, ne9_run):
        t, x = ne9_run.times, ne9_run.states[:, 0]
        avg = running_average(t, x)
        split = len(t) // 3
        first = np.trapezoid(x[:split + 1], t[:split + 1])
        second = np.trapezoid(x[split:], t[split:])
        assert avg.values[-1] * t[-1] == pytest.approx(first + second,
                                                       rel=1e-12)

    def test_refinement_stability(self):
        coarse = simulate_ne9(horizon=20.0, sample_step=0.02)
        fine = simulate_ne9(horizon=20.0, sample_step=0.01)
        a_coarse = running_average(coarse.times, coarse.states[:, 0])
        a_fine = running_average(fine.times, fine.states[:, 0])
        assert a_coarse.values[-1] == pytest.approx(a_fine.values[-1],
                                                    abs=1e-3)


class TestNe9:
    def test_bounded(self, ne9_run):
        assert np.max(np.abs(ne9_run.states[:, 0])) < 10.0
        assert np.all(np.isfinite(ne9_run.states))

    def test_sign_changes_throughout(self, ne9_run):
        x = ne9_run.states[:, 0]
        t = ne9_run.times
        flips = t[1:][np.diff(np.sign(x)) != 0]
        # the driver keeps oscillating over the whole window
        assert len(flips) > 20
        assert flips[-1] > 80.0

    def test_zero_dissipation_origin(self):
        raw = simulate_ne9(b=0.0, x0=0.0, y0=0.0, z0=0.0, horizon=5.0,
                           sample_step=0.5)
        assert np.all(raw.states == 0.0)

    def test_long_run_average(self, ne9_run):
        avg = running_average(ne9_run.times, ne9_run.states[:, 0])
        assert avg.values[-1] == pytest.approx(0.14, abs=0.05)


class TestModulated:
    def test_zero_amplitude_matches_basic(self):
        params = ModelParams(**FIG_CHAOS)
        traj = simulate_modulated(params, 0.0, EconState(4.0, 1.0),
                                  horizon=50.0, sample_step=0.1)
        raw = integrate(basic_rhs(params), [4.0, 1.0], 0.0, 50.0,
                        CHAOS_SETTINGS, 0.1)
        y_basic = raw.states[:, 1] ** 0.2 * raw.states[:, 0] ** 0.35
        assert np.max(np.abs(traj["Y"] - y_basic)) < 1e-9

    def test_oscillation_and_effective_coefficient(self):
        params = ModelParams(**FIG_CHAOS)
        traj = simulate_modulated(params, 0.5, EconState(4.0, 1.0),
                                  horizon=100.0, sample_step=0.05)
        # irregular oscillation: Y keeps crossing its own window mean
        y = traj["Y"][traj.times > 10.0]
        crossings = np.sum(np.diff(np.sign(y - y.mean())) != 0)
        assert crossings > 8
        assert traj.min_effective_sk is not None
        assert traj.min_effective_sk == pytest.approx(
            np.min(0.5 * traj["x"] + 0.4), rel=1e-12)

    def test_positive_bias_beats_negative(self):
        params = ModelParams(**FIG_CHAOS)
        means = {}
        for c in (0.5, -0.5):
            traj = simulate_modulated(params, c, EconState(4.0, 1.0),
                                      horizon=200.0, sample_step=0.05)
            window = (traj.times >= 100.0) & (traj.times <= 200.0)
            means[c] = float(np.mean(traj["Y"][window]))
        assert means[0.5] > means[-0.5]

    def test_conservation_per_row(self):
        params = ModelParams(**FIG_CHAOS)
        traj = simulate_modulated(params, 0.5, EconState(4.0, 1.0),
                                  horizon=20.0, sample_step=0.1)
        total = traj["C"] + traj["I_k"] + traj["I_r"]
        assert np.max(np.abs(total - traj["Y"]) / traj["Y"]) < 1e-12


class TestChaosValuesMustBeFinite:
    """simulate_ne9 and simulate_modulated check c, x0, y0, z0 and b as a
    ChaosSpec does, before the run, instead of failing inside the step."""

    @pytest.mark.parametrize("field", ["x0", "y0", "z0", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_ne9(self, field, value):
        with pytest.raises(ValidationError) as info:
            simulate_ne9(horizon=1.0, **{field: value})
        assert str(info.value) == f"{field}: must be finite, got {value}"

    @pytest.mark.parametrize("field", ["c", "x0", "y0", "z0", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_modulated(self, field, value):
        values = {"c": 0.5, "x0": 0.5, "y0": 0.0, "z0": 0.0, "b": 0.55,
                  field: value}
        with pytest.raises(ValidationError) as info:
            simulate_modulated(ModelParams(**FIG_CHAOS), values["c"],
                               EconState(4.0, 1.0),
                               (values["x0"], values["y0"], values["z0"]),
                               values["b"], horizon=1.0)
        assert str(info.value) == f"{field}: must be finite, got {value}"
