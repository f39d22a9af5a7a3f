"""The benchmark under perfbench/ drives capedu through fixed names.

perfbench/ is kept unchanged between runs of the benchmark, so a rename or
removal in capedu that it relies on would break it silently; these tests
fail first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from capedu import cli

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


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", str(SCENARIOS / "basic_baseline.json")],
    ["simulate", "--scenario", str(SCENARIOS / "controlled_p047.json")],
    ["simulate", "--scenario", str(SCENARIOS / "chaotic_plus.json")],
    ["chaos", "--horizon", "10"],
], ids=["basic", "controlled", "chaotic", "chaos"])
def test_trace_sees_every_run(argv, capsys):
    # the trace counts runs through the integrate attributes it wraps; a run
    # that reaches the integrator another way would be missing from it
    tracing = _load_tracing()
    tracing.capture_originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run(argv) == 0
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    calls, _, steps = tracing.integrate_counts(tracer.spans)
    assert calls == 1 and steps > 0


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
