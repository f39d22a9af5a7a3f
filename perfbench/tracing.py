"""Outside-in layer trace of capedu, kept in the benchmark's own files.

``Tracer.install`` replaces each layer function at the module attribute
through which the other modules (or the benchmark) call it, and
``uninstall`` puts the original objects back; nothing under ``src/`` is
edited.  A span records name, layer, op id, parent span, wall start/end and
the CPU time of its own thread.  CPU time is used for self time because
``sweep`` runs its rows on a thread pool, and a thread's wall time would
include the time it waits for the interpreter lock.  RHS calls are not
spans: the ``integrate`` wrapper wraps the field it is given and adds each
call's count and CPU time to that ``integrate`` span.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (module, attribute, layer, what the span records beyond its times)
WRAPPED = [
    ("capedu.cli", "run", "cli", None),
    ("capedu.cli", "equilibrium_report", "analysis", None),
    ("capedu.cli", "controlled_equilibrium", "analysis", None),
    ("capedu.scenario_io", "load_scenario", "scenario_io", None),
    ("capedu.scenario_io", "run_scenario", "scenario_io", None),
    ("capedu.scenario_io", "run_sweep", "scenario_io", "sweep_rows"),
    ("capedu.scenario_io", "phase_portrait", "scenario_io", None),
    ("capedu.scenario_io", "write_trajectory_csv", "scenario_io", "csv_rows"),
    ("capedu.scenario_io", "write_sweep_csv", "scenario_io", "csv_rows"),
    ("capedu.scenario_io", "write_phase_csv", "scenario_io", "csv_rows"),
    ("capedu.scenario_io", "render_svg", "scenario_io", "svg_points"),
    ("capedu.scenario_io", "integrate", "integrator", "integrate"),
    ("capedu.scenario_io", "build_trajectory", "trajectory", "traj_rows"),
    ("capedu.scenario_io", "equilibrium", "analysis", None),
    ("capedu.control", "simulate_controlled", "control", None),
    ("capedu.control", "find_tipping", "control", None),
    ("capedu.control", "integrate", "integrator", "integrate"),
    ("capedu.control", "build_trajectory", "trajectory", "traj_rows"),
    ("capedu.chaos", "simulate_ne9", "chaos", None),
    ("capedu.chaos", "simulate_modulated", "chaos", None),
    ("capedu.chaos", "running_average", "chaos", None),
    ("capedu.chaos", "integrate", "integrator", "integrate"),
    ("capedu.chaos", "build_trajectory", "trajectory", "traj_rows"),
    ("capedu.integrator", "integrate", "integrator", "integrate"),
]
LAYERS = ("model", "integrator", "trajectory", "analysis", "control", "chaos",
          "scenario_io", "cli")

_ORIGINALS: dict[tuple[str, str], object] = {}


def capture_originals() -> None:
    """Remember every wrapped attribute's object; call once after import."""
    for mod, attr, _, _ in WRAPPED:
        _ORIGINALS[mod, attr] = getattr(importlib.import_module(mod), attr)


def assert_untraced() -> None:
    """Every wrapped attribute is the original object (the untraced run)."""
    for mod, attr, _, _ in WRAPPED:
        obj = getattr(importlib.import_module(mod), attr)
        if obj is not _ORIGINALS[mod, attr]:
            raise RuntimeError(f"{mod}.{attr} is still wrapped")


class Span:
    __slots__ = ("id", "name", "layer", "op", "parent", "thread", "start",
                 "end", "cpu", "child_cpu", "rhs_calls", "rhs_cpu", "amount")

    def __init__(self, sid, name, layer, op, parent, thread):
        self.id, self.name, self.layer, self.op = sid, name, layer, op
        self.parent, self.thread = parent, thread
        self.start = self.end = self.cpu = self.child_cpu = 0
        self.rhs_calls = self.rhs_cpu = self.amount = 0

    @property
    def self_cpu(self) -> int:
        return self.cpu - self.child_cpu - self.rhs_cpu

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _amount(kind, args, result) -> int:
    """The unit of work a span did, for per-row and per-point metrics."""
    if kind == "integrate":
        return len(result.times) - 1                    # sample intervals
    if kind == "traj_rows":
        return len(result.times)
    if kind == "csv_rows":
        return result.count("\n") - 1                   # minus the header
    if kind == "svg_points":
        return sum(len(series[1]) for series in args[0])
    if kind == "sweep_rows":
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None                  # id of the op being run
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counted(self, field, span: Span):
        clock = time.thread_time_ns

        def rhs(v):
            t0 = clock()
            result = field(v)
            span.rhs_cpu += clock() - t0
            span.rhs_calls += 1
            return result
        return rhs

    def _wrap(self, fn, name: str, layer: str, kind):
        tracer = self
        wall, cpu = time.perf_counter_ns, time.thread_time_ns

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span hangs off the main thread's open span
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(next(tracer._ids), name, layer, tracer.op,
                        parent.id if parent else None, threading.get_ident())
            if kind == "integrate":
                args = (tracer._counted(args[0], span),) + args[1:]
            stack.append(span)
            span.start = wall()
            cpu0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = cpu() - cpu0
                span.end = wall()
                stack.pop()
                if stack:
                    stack[-1].child_cpu += span.cpu
                tracer.spans.append(span)
            span.amount = _amount(kind, args, result)
            return result
        return traced

    def install(self) -> None:
        for mod, attr, layer, kind in WRAPPED:
            module = importlib.import_module(mod)
            original = _ORIGINALS[mod, attr]
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer, kind))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def integrate_counts(spans) -> tuple[int, int, int]:
    """(calls, RHS calls, attempted steps) of the integrate spans.

    DOPRI5 with FSAL makes one seed evaluation per call and 6 per attempted
    step, so steps = (rhs_calls - calls) / 6 exactly.
    """
    calls = [s for s in spans if s.name == "integrate"]
    rhs = sum(s.rhs_calls for s in calls)
    for s in calls:
        if (s.rhs_calls - 1) % 6:
            raise RuntimeError(f"integrate made {s.rhs_calls} RHS calls, "
                               "not 1 + 6k")
    return len(calls), rhs, (rhs - len(calls)) // 6


def pass_counts(spans) -> dict[str, int]:
    """Counts that must repeat exactly from one traced pass to the next."""
    calls, rhs, steps = integrate_counts(spans)
    return {"calls": calls, "rhs": rhs, "steps": steps, "spans": len(spans)}


def layer_metrics(spans, passes: int):
    """Per-layer metrics from the spans of ``passes`` traced passes, and
    each layer's share of the traced CPU time."""
    by_name = defaultdict(list)
    self_cpu = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        self_cpu[s.layer] += s.self_cpu
        self_cpu["model"] += s.rhs_cpu
    total = sum(self_cpu.values())

    def self_of(*names):
        return sum(s.self_cpu for n in names for s in by_name[n])

    def amount_of(*names):
        return sum(s.amount for n in names for s in by_name[n])

    def per(num, den, scale=1e-3):
        return num * scale / den if den else 0.0

    calls, rhs, steps = integrate_counts(spans)
    rhs_cpu = sum(s.rhs_cpu for s in by_name["integrate"])
    ids = {s.id: s for s in spans}
    evals = [s for s in by_name["simulate_controlled"]
             if s.parent in ids and ids[s.parent].name == "find_tipping"]
    analysis = [s for s in spans if s.layer == "analysis"]
    sweep_threads = defaultdict(set)
    for s in by_name["run_scenario"]:
        if s.parent in ids and ids[s.parent].name == "run_sweep":
            sweep_threads[s.parent].add(s.thread)
    runs = by_name["run"]

    m = {
        "model.rhs_calls": (rhs / passes, "count"),
        "model.rhs_us": (per(rhs_cpu, rhs), "us"),
        "integrator.calls": (calls / passes, "count"),
        "integrator.steps": (steps / passes, "count"),
        "integrator.steps_per_sample": (
            per(steps, amount_of("integrate"), 1.0), "steps/sample"),
        "integrator.self_us_per_step": (per(self_of("integrate"), steps), "us"),
        "trajectory.build_us_per_row": (
            per(self_of("build_trajectory"), amount_of("build_trajectory")),
            "us"),
        "analysis.us_per_call": (
            per(sum(s.self_cpu for s in analysis), len(analysis)), "us"),
        "control.tipping_evals": (
            per(len(evals), len(by_name["find_tipping"]), 1.0), "evals/call"),
        "control.us_per_eval": (per(sum(s.cpu for s in evals), len(evals)),
                                "us"),
        "chaos.running_average_us": (
            per(self_of("running_average"), len(by_name["running_average"])),
            "us"),
        "scenario_io.load_us": (
            per(self_of("load_scenario"), len(by_name["load_scenario"])), "us"),
        "scenario_io.csv_rows": (
            amount_of("write_trajectory_csv", "write_sweep_csv",
                      "write_phase_csv") / passes, "count"),
        "scenario_io.csv_us_per_row": (
            per(self_of("write_trajectory_csv", "write_phase_csv"),
                amount_of("write_trajectory_csv", "write_phase_csv")), "us"),
        "scenario_io.svg_us_per_point": (
            per(self_of("render_svg"), amount_of("render_svg")), "us"),
        "scenario_io.sweep_us_per_row": (
            per(self_of("run_sweep", "write_sweep_csv"),
                amount_of("run_sweep")), "us"),
        "scenario_io.sweep_threads": (
            max((len(t) for t in sweep_threads.values()), default=0), "count"),
        "cli.self_ms": (per(self_of("run"), len(runs), 1e-6), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.busy_ms"] = (self_cpu[layer] * 1e-6 / passes, "ms")
    shares = {layer: self_cpu[layer] / total for layer in LAYERS}
    return m, shares
