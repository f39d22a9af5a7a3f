"""End-to-end acceptance gate.

Each test prints one PASS line when its criterion holds (run with -s to see
them); a failed assert is the FAIL signal.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import capedu.model as model
from capedu import (
    EconState,
    IntegratorSettings,
    ModelParams,
    SweepSpec,
    dump_scenario,
    eigen_basic,
    equilibrium,
    find_tipping,
    integrate,
    load_scenario,
    run_scenario,
    run_sweep,
    simulate_controlled,
    simulate_modulated,
    simulate_ne9,
    write_trajectory_csv,
)
from capedu.chaos import running_average
from capedu.integrator import CHAOS_SETTINGS

from test_model import random_params

BASELINE = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                       alpha=0.2, beta=0.35)
START = EconState(K=4.0, E=1.0)

BASIC_DOC = """{
  "kind": "basic",
  "params": {"s_k": 0.4, "s_r": 0.1, "delta_k": 0.15, "delta_r": 0.25,
             "alpha": 0.2, "beta": 0.35},
  "initial": {"K": 4, "E": 1},
  "horizon": 200,
  "sample_step": 1.0
}"""


def report(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


@pytest.fixture(scope="module")
def education_decay_sweep():
    base = load_scenario(BASIC_DOC)
    spec = SweepSpec(base=base, parameter="delta_r",
                     values=(0.25, 0.23, 0.21, 0.19, 0.17, 0.15),
                     report_time=200.0)
    t0 = time.perf_counter()
    rows = run_sweep(spec)
    return rows, time.perf_counter() - t0


@pytest.mark.parametrize("index,value,expected", [
    (0, 0.25, 1.43), (1, 0.23, 1.48), (2, 0.21, 1.54),
    (3, 0.19, 1.61), (4, 0.17, 1.68), (5, 0.15, 1.79),
])
def test_criterion_1_education_effectiveness_row(education_decay_sweep,
                                                 index, value, expected):
    rows, _ = education_decay_sweep
    assert rows[index].error is None
    assert rows[index].Y == pytest.approx(expected, abs=0.01), \
        f"delta_r={value}: Y(200)={rows[index].Y:.4f}, expected {expected}"
    report(1, f"delta_r={value}: Y(200)={rows[index].Y:.4f} = {expected}+-0.01")


def test_criterion_1_runtime(education_decay_sweep):
    _, elapsed = education_decay_sweep
    assert elapsed < 1.0
    report(1, f"sweep runtime {elapsed:.3f}s < 1s")


def test_criterion_2_equilibrium_oracle_agreement():
    K0, E0 = equilibrium(BASELINE)
    assert K0 == pytest.approx(3.8054, abs=1e-3)
    assert E0 == pytest.approx(0.5708, abs=1e-3)
    # defining-equation residual at the closed form
    Y0 = E0 ** BASELINE.alpha * K0 ** BASELINE.beta
    assert abs(BASELINE.s_k * Y0 - BASELINE.delta_k * K0) / K0 < 1e-10
    assert abs(BASELINE.s_r * Y0 - BASELINE.delta_r * E0) / E0 < 1e-10
    raw = integrate(model.basic_rhs(BASELINE), [4.0, 1.0], 0.0, 500.0,
                    sample_step=1.0)
    err = np.abs(raw.states[-1] - [K0, E0])
    assert np.all(err < 1e-6)
    report(2, f"|state(500) - closed form| = {err.max():.2e} < 1e-6")


def test_criterion_3_eigenvalue_identities():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = random_params(rng)
        l1, l2 = eigen_basic(p)
        tr = (p.alpha - 1) * p.delta_r + (p.beta - 1) * p.delta_k
        det = (1 - p.alpha - p.beta) * p.delta_r * p.delta_k
        assert (l1 + l2).real == pytest.approx(tr, rel=1e-12)
        assert (l1 * l2).real == pytest.approx(det, rel=1e-12)
        disc = tr * tr - 4 * det
        if disc >= 0:
            assert l1.imag == 0 and l1.real < 0 and l2.real < 0
    for _ in range(100):
        alpha = rng.uniform(0.3, 0.9)
        beta = rng.uniform(max(0.15, 1.01 - alpha), 0.95)
        if alpha + beta <= 1:
            continue
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=rng.uniform(0.05, 0.5),
                        delta_r=rng.uniform(0.05, 0.5),
                        alpha=alpha, beta=beta)
        l1, l2 = eigen_basic(p)
        assert (l1.real > 0) != (l2.real > 0)
        assert l1.real > 0
    report(3, "trace/determinant identities and sign rules over random draws")


def test_criterion_4_invariant_manifold():
    p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.2, delta_r=0.2,
                    alpha=0.2, beta=0.35)
    raw = integrate(model.basic_rhs(p), [4.0, 1.0], 0.0, 100.0,
                    sample_step=0.5)
    K, E = raw.states[:, 0], raw.states[:, 1]
    deviation = np.max(np.abs(K - 4.0 * E) / K)
    assert deviation < 1e-6
    report(4, f"max |K - 4E|/K = {deviation:.2e} < 1e-6")


def test_criterion_5_control_scenarios():
    t0 = time.perf_counter()
    runs = {p: simulate_controlled(BASELINE, p, START, 0.1, 200.0,
                                   sample_step=0.5)
            for p in (0.40, 0.47, 0.55)}
    elapsed = time.perf_counter() - t0

    traj = runs[0.40]
    assert traj.at(200.0)["Y"] == pytest.approx(1.942, abs=0.02)
    assert traj.at(200.0)["C"] == pytest.approx(0.777, abs=0.01)

    traj = runs[0.47]
    assert np.max(np.abs(traj["Y"] - 1.6245) / 1.6245) < 0.02
    assert traj.at(200.0)["C"] == pytest.approx(0.754, abs=0.01)

    traj = runs[0.55]
    assert traj.at(200.0)["Y"] == pytest.approx(1.049, abs=0.02)
    assert traj["Y"][0] == pytest.approx(1.6245, abs=1e-3)
    assert traj.at(200.0)["Y"] < traj["Y"][0]

    assert elapsed < 1.0
    report(5, f"three consumption targets reproduced in {elapsed:.3f}s < 1s")


def test_criterion_6_tipping_point():
    t0 = time.perf_counter()
    result = find_tipping(BASELINE, START, 0.1, 200.0, 0.40, 0.55, tol=1e-3)
    elapsed = time.perf_counter() - t0
    assert result.p_star == pytest.approx(0.466, abs=0.005)
    assert elapsed < 2.0
    report(6, f"p_star={result.p_star:.4f} = 0.466+-0.005 in {elapsed:.3f}s")


def test_criterion_7_chaos_average():
    settings = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
    raw = simulate_ne9(b=0.55, x0=0.5, y0=0.0, z0=0.0, horizon=100.0,
                       settings=settings, sample_step=0.01)
    avg = running_average(raw.times, raw.states[:, 0])
    a100 = float(avg[-1])
    assert a100 == pytest.approx(0.14, abs=0.05)
    report(7, f"A(100)={a100:.4f} = 0.14+-0.05")


def test_criterion_8_modulation_ordering():
    params = replace(BASELINE, delta_r=0.15)
    means = {}
    for c in (0.5, -0.5):
        traj = simulate_modulated(params, c, START, horizon=200.0,
                                  sample_step=0.05)
        window = (traj.times >= 100.0) & (traj.times <= 200.0)
        means[c] = float(np.mean(traj["Y"][window]))
    assert means[0.5] > means[-0.5]

    off = simulate_modulated(params, 0.0, START, horizon=200.0,
                             sample_step=0.5)
    raw = integrate(model.basic_rhs(params), [4.0, 1.0], 0.0, 200.0,
                    CHAOS_SETTINGS, 0.5)
    y_basic = raw.states[:, 1] ** params.alpha * raw.states[:, 0] ** params.beta
    assert np.max(np.abs(off["Y"] - y_basic)) < 1e-9
    report(8, f"mean Y[100,200]: c=+0.5 {means[0.5]:.3f} > "
              f"c=-0.5 {means[-0.5]:.3f}; c=0 matches basic to 1e-9")


def test_criterion_9_integrator_baseline():
    raw = integrate(lambda y: -y, [1.0], 0.0, 1.0, sample_step=0.1)
    assert abs(raw.states[-1, 0] - np.exp(-1.0)) < 1e-9
    scenario = load_scenario(BASIC_DOC)
    first = write_trajectory_csv(run_scenario(scenario))
    second = write_trajectory_csv(run_scenario(scenario))
    assert first == second
    report(9, "decay test accurate to 1e-9; CSV bytes identical on rerun")


def test_criterion_10_round_trips():
    scenario = load_scenario(BASIC_DOC)
    assert load_scenario(dump_scenario(scenario)) == scenario

    traj = run_scenario(replace(scenario, horizon=20.0))
    lines = write_trajectory_csv(traj).strip().split("\n")
    for i, line in enumerate(lines[1:]):
        values = [float(v) for v in line.split(",")]
        assert values[0] == traj.times[i]
        for v, col in zip(values[1:], traj.columns):
            assert v == traj.data[col][i]

    spec = SweepSpec(base=scenario, parameter="delta_r",
                     values=(0.25, 0.15), report_time=200.0)
    rows = run_sweep(spec)
    for row, value in zip(rows, spec.values):
        single = run_scenario(replace(
            scenario, params=replace(scenario.params, delta_r=value)))
        at = single.at(200.0)
        assert row.Y == at["Y"] and row.C == at["C"]
    report(10, "scenario, CSV and sweep round-trips are exact")
