"""The benchmark under perfbench/ drives capedu through fixed names.

perfbench/ is kept unchanged between runs of the benchmark, so a rename or
removal in capedu that it relies on would break it silently; these tests
fail first.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from capedu import chaos, cli, scenario_io

from test_control import counted_runs

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SCENARIOS = ROOT / "scenarios"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_perfbench("tracing")


def test_every_traced_attribute_resolves():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for mod, attr, _, _ in wrapped:
        assert callable(getattr(importlib.import_module(mod), attr)), \
            f"{mod}.{attr}"


@pytest.mark.parametrize("mod,attr", [
    ("capedu.model", "ModelParams"),
    ("capedu.model", "basic_rhs"),
    ("capedu.integrator", "integrate"),
    ("capedu.integrator", "IntegratorSettings"),
    ("capedu.analysis", "eigen_basic"),
    ("capedu.analysis", "equilibrium_report"),
    ("capedu.analysis", "controlled_equilibrium"),
])
def test_workload_imports_exist(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr))


def _chaotic_scenario_built_in_code():
    base = scenario_io.load_scenario(
        (SCENARIOS / "chaotic_plus.json").read_text())
    scenario = scenario_io.Scenario(
        "chaotic", base.params, base.initial, 5.0, 0.5, chaos=base.chaos)
    # through the module attribute, as the CLI reaches it
    return lambda: scenario_io.run_scenario(scenario).times.size == 11


def _cli(*argv):
    return lambda: cli.run(list(argv)) == 0


BASIC = str(SCENARIOS / "basic_baseline.json")
CONTROLLED = str(SCENARIOS / "controlled_p047.json")


@pytest.mark.parametrize("run,runs", [
    (_cli("simulate", "--scenario", BASIC), 1),
    (_cli("simulate", "--scenario", CONTROLLED), 1),
    (_cli("simulate", "--scenario", str(SCENARIOS / "chaotic_plus.json")), 1),
    (_cli("chaos", "--horizon", "10"), 1),
    (_cli("sweep", "--scenario", BASIC, "--param", "delta_r",
          "--values", "0.25,0.21,0.17", "--at", "10"), 3),
    # a tolerance wider than the bracket searches nothing: one run per end
    (_cli("tipping", "--scenario", CONTROLLED, "--p-min", "0.40",
          "--p-max", "0.55", "--tol", "1", "--horizon", "20"), 2),
    # criterion 6's search: the 2 seed runs around the closed-form root
    # hold the root and the ends never run, where ITP made 6 and bisection 10
    (_cli("tipping", "--scenario", CONTROLLED, "--p-min", "0.40",
          "--p-max", "0.55", "--tol", "1e-3"), 2),
    # the same search at dense_chaos's tol 0.05, where ITP made 4
    (_cli("tipping", "--scenario", CONTROLLED, "--p-min", "0.40",
          "--p-max", "0.55", "--tol", "0.05"), 2),
    # at T = 50 the seed's bound closes the gate: the ends and 4 ITP runs
    (_cli("tipping", "--scenario", CONTROLLED, "--p-min", "0.40",
          "--p-max", "0.55", "--tol", "1e-3", "--horizon", "50"), 6),
    (_cli("phase", "--scenario", BASIC, "--k-range", "1:6",
          "--e-range", "0.5:3", "--grid", "2x2", "--horizon", "5"), 4),
    (_chaotic_scenario_built_in_code(), 1),
], ids=["basic", "controlled", "chaotic", "chaos", "sweep", "tipping",
        "tipping-crit6", "tipping-tol-0.05", "tipping-itp", "phase",
        "chaotic-built-in-code"])
def test_trace_sees_every_run(run, runs, capsys):
    # the trace counts runs through the integrate attributes it wraps; a run
    # that reaches the integrator another way would be missing from it
    tracing = _load_tracing()
    tracing.capture_originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run()
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    calls, _, steps = tracing.integrate_counts(tracer.spans)
    assert calls == runs and steps > 0


def _scenario(name, **changes):
    return replace(scenario_io.load_scenario((SCENARIOS / name).read_text()),
                   **changes)


@pytest.mark.parametrize("run,steps,accepted,rhs_calls", [
    (lambda: scenario_io.run_scenario(
        _scenario("basic_baseline.json", sample_step=1.0)), 224, 224, 1_345),
    (lambda: scenario_io.run_scenario(_scenario("controlled_p047.json")),
     435, 435, 2_611),
    (lambda: chaos.simulate_ne9(horizon=100.0), 10_002, 10_002, 60_013),
    (lambda: scenario_io.run_scenario(_scenario("chaotic_plus.json")),
     9_313, 9_255, 55_879),
], ids=["basic", "controlled", "chaos", "modulated"])
def test_selfcheck_runs_report_their_steps(run, steps, accepted, rhs_calls):
    # the selfcheck's four runs and the RHS calls it records: where no stage
    # left the domain, a run makes 1 + 6 calls per attempted step, so the
    # stats the library reports give the benchmark's counts
    tracing = _load_tracing()
    tracing.capture_originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stats = run().stats
    finally:
        tracer.uninstall()
    assert (stats.steps, stats.accepted, stats.domain_rejected) == \
        (steps, accepted, 0)
    assert tracing.integrate_counts(tracer.spans)[1] == rhs_calls == \
        1 + 6 * stats.steps


def test_benchmark_selfcheck_passes(monkeypatch, tmp_path, capsys):
    # the benchmark pins the step rule through exact RHS counts; a change to
    # it must fail here before it reaches the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    bench = _load_perfbench("run")
    bench.tracing.capture_originals()
    tracer = bench.tracing.Tracer()
    tracer.install()
    try:
        problems = bench.selfcheck(cli, tracer, str(tmp_path))
    finally:
        tracer.uninstall()
    bench.tracing.assert_untraced()
    assert problems == []


@pytest.mark.parametrize("workload,seeded", [
    ("ensemble", True), ("dense_chaos", True), ("render_io", False)])
def test_benchmark_searches_make_two_runs(workload, seeded, monkeypatch,
                                          tmp_path):
    # every tipping search the benchmark makes ends after 2 controlled runs:
    # the seed pair inside the bracket, or, where tol is wider than the
    # bracket, its two ends; a search that falls back to the ends and ITP
    # after a missed pair would fail here before it moved tipping_ms
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    workloads = _load_perfbench("run").workloads
    for seed in (1, 2, 3):
        directory = tmp_path / str(seed)
        directory.mkdir()
        ops = workloads.generate(workload, seed, str(directory))
        searches = [op for op in ops if op.cmd == "tipping"]
        assert searches
        for op in searches:
            with counted_runs(2) as runs:
                assert cli.run(op.argv) == 0
            op.check(op.out)
            lo, hi, tol = (float(op.argv[op.argv.index(flag) + 1])
                           for flag in ("--p-min", "--p-max", "--tol"))
            if seeded:
                assert len(runs) == 2 and lo < runs[0] < runs[1] < hi
                assert runs[1] - runs[0] <= tol
            else:
                assert runs == [lo, hi]
