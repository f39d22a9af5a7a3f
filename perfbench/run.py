"""capedu benchmark: drives ``capedu.cli.run`` on seeded workloads.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 35 --trace 0

One process, one client, closed loop: each op starts when the previous one
has finished and its output has been checked.  A pass runs the workload's
fixed op list once, in order; passes repeat until the next one would end
after ``--seconds``.  Outputs go to files in a temporary directory inside
the checkout and are checked against closed-form references; a rerun of an
op must write the same bytes.

Every workload runs every subcommand, so every end-to-end metric exists on
every workload; the subcommands outside a workload's focus run small inputs.

Times are scaled to a fixed machine speed.  On a shared virtual machine the
CPU's speed drifts by 20-50% over minutes, and CPU time drifts with it, so
no statistic of raw times within one run is steady from run to run.  A
reference kernel that does not use capedu (``reference_kernel``) runs just
before and just after every op, on as many threads as the op computes on
(``sweep`` runs its rows on a pool); each op's time is multiplied by
``REF_MS`` over the mean of the kernel's two times.  A reported time is
thus the time the op takes on a machine where the kernel takes ``REF_MS``;
the raw medians and the kernel's median time are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first checks the
trace's counters against hand-counted and recorded RHS counts, then
alternates untraced and traced passes and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import tracing
import workloads
from workloads import ROOT, SCENARIOS, CheckFailed

SUBCOMMANDS = ("sweep", "tipping", "phase", "chaos", "simulate",
               "equilibrium", "plot")
SETUP_REPEATS = 5
WORK_DIR = os.path.join(ROOT, ".perfbench")

# Hand count for y' = -y on [0, 1], sample 0.1, default settings: steps of
# 1e-3, 5e-3 and 0.025 grow by the maximum factor, a clipped 0.069 lands on
# t = 0.1, and each later interval takes a ~0.092 step plus a short landing
# step.  That is 4 + 9 * 2 = 22 steps, all accepted: 1 + 6 * 22 = 133 calls.
TINY_STEPS = 22
# RHS calls per run recorded in ROADMAP.md for the seed commit.
BASELINE_RHS = [
    ("basic T=200 sample 1.0", ["simulate", "--scenario", "{crit1}"], 1345),
    ("controlled p=0.47 T=200 sample 0.5",
     ["simulate", "--scenario", os.path.join(SCENARIOS, "controlled_p047.json")],
     2611),
    ("chaos x,y,z T=100 sample 0.01", ["chaos", "--horizon", "100"], 60013),
    ("modulated c=0.5 T=200 sample 0.05",
     ["simulate", "--scenario", os.path.join(SCENARIOS, "chaotic_plus.json")],
     55879),
]

# The reference kernel's time on the machine that reported times refer to.
REF_MS = 15.0


def reference_kernel() -> float:
    """Wall time in seconds of a fixed piece of work in the style of
    capedu's (a Python loop over 3-vectors in numpy: 1,000 classical RK4
    steps of the Lorenz system) that does not touch capedu."""
    sigma, rho, beta, h = 10.0, 28.0, 8.0 / 3.0, 0.002

    def field(v):
        x, y, z = v
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    t0 = time.perf_counter()
    v = np.array([1.0, 1.0, 1.0])
    for _ in range(1000):
        k1 = field(v)
        k2 = field(v + 0.5 * h * k1)
        k3 = field(v + 0.5 * h * k2)
        k4 = field(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    elapsed = time.perf_counter() - t0
    if not np.all(np.isfinite(v)):
        raise RuntimeError("reference kernel diverged")
    return elapsed


def reference(threads: int) -> float:
    """Wall time of the reference kernel run once in each of ``threads``
    threads of a fresh pool, as ``sweep`` runs its rows; divided by the
    thread count, so that it reads as one kernel's time.  On two threads
    the kernel shares the interpreter lock and both cores as sweep does,
    which a single thread does not show."""
    if threads == 1:
        return reference_kernel()
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda _: reference_kernel(), range(threads)))
    return (time.perf_counter() - t0) / threads


def scaled(elapsed: float, ref_before: float, ref_after: float) -> float:
    """A time scaled to the machine on which the kernel takes REF_MS."""
    return elapsed * REF_MS * 1e-3 / (0.5 * (ref_before + ref_after))


def measure_setup(workload: str, seed: int,
                  directory: str) -> tuple[float, float, str]:
    """Median scaled and raw wall time of a fresh interpreter that imports
    capedu.cli and generates the workload's inputs; returns them and the
    last output dir."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads.py")
    times, raw = [], []
    ref = reference_kernel()
    for i in range(SETUP_REPEATS):
        out = os.path.join(directory, f"setup{i}")
        os.makedirs(out)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, script, "--workload", workload,
                        "--seed", str(seed), "--dir", out],
                       check=True, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        ref_after = reference_kernel()
        times.append(scaled(raw[-1], ref, ref_after))
        ref = ref_after
    return statistics.median(times), statistics.median(raw), out


def same_inputs(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


class Runner:
    """Runs ops through the CLI entry point and checks their outputs."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.raw = [[] for _ in ops]        # per op: wall times
        self.scaled = [[] for _ in ops]     # per op: scaled times
        self.ref: list[float] = []          # one-thread reference times
        self.attempted = 0
        self.failed = 0
        self.oracle_err = 0.0
        self.bytes_out = 0
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []

    def run_op(self, i: int) -> float:
        """Runs and checks op i; returns its wall time."""
        op = self.ops[i]
        ok, why, dev = True, "", 0.0
        t0 = time.perf_counter()
        try:
            rc = self.cli.run(op.argv)   # through the module attribute
        except Exception as exc:        # an op failure, not a benchmark one
            rc, why = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if rc != 0:
            ok, why = False, why or f"exit code {rc}"
        else:
            try:
                dev = op.check(op.out)
                with open(op.out, "rb") as fh:
                    data = fh.read()
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.setdefault(i, digest) != digest:
                    raise CheckFailed("rerun wrote different bytes")
                self.bytes_out += len(data)
            except Exception as exc:    # any unreadable output fails the op
                ok, why = False, f"check failed: {exc!r}"
        self.attempted += 1
        if ok:
            if op.ref:
                self.oracle_err = max(self.oracle_err, dev)
        else:
            self.failed += 1
            self.errors.append(f"op {i} ({op.cmd}): {why}")
        return elapsed

    def one_pass(self, before_op=None) -> tuple[float, float]:
        """Runs every op once, with the reference kernel on the op's thread
        count just before and just after it; returns the pass's wall time
        and the sum of its ops' scaled times."""
        t0 = time.perf_counter()
        ref, ref_threads = 0.0, 0
        total = 0.0
        for i, op in enumerate(self.ops):
            if ref_threads != op.threads:
                ref, ref_threads = reference(op.threads), op.threads
            if before_op:
                before_op(i)
            elapsed = self.run_op(i)
            ref_after = reference(op.threads)
            self.raw[i].append(elapsed)
            self.scaled[i].append(scaled(elapsed, ref, ref_after))
            if op.threads == 1:
                self.ref.append(ref_after)
            total += self.scaled[i][-1]
            ref = ref_after
        return time.perf_counter() - t0, total

    def op_medians(self, cmd: str, times) -> list[float]:
        return [statistics.median(times[i])
                for i, op in enumerate(self.ops) if op.cmd == cmd]


def percentile_note(samples: list[float]) -> str:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for q in (50, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return f"n={n}"
    value = statistics.quantiles(samples, n=100, method="inclusive")[best - 1]
    return f"n={n} p{best}={value * 1e3:.4g}ms"


def end_to_end(args, runner: Runner, passes: int, setup: tuple[float, float]
               ) -> dict:
    """Each op's median scaled time over the run; a subcommand's latency is
    the mean of its ops' medians (its ops differ in size, and a median over
    them all would fall in the gap between sizes), and wall_s is the sum of
    all ops' medians: one pass at the reference speed."""
    tracing.assert_untraced()
    metrics = {"setup_s": (setup[0], "s"),
               "wall_s": (sum(statistics.median(t) for t in runner.scaled),
                          "s")}
    for cmd in SUBCOMMANDS:
        metrics[f"{cmd}_ms"] = (
            statistics.mean(runner.op_medians(cmd, runner.scaled)) * 1e3, "ms")
    metrics["success_rate"] = (1 - runner.failed / runner.attempted, "frac")
    metrics["oracle_err"] = (runner.oracle_err, "frac")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss / 1024, "MB")
    print(f"workload {args.workload} seed {args.seed}: {passes} passes "
          f"of {len(runner.ops)} ops; reference kernel median "
          f"{statistics.median(runner.ref) * 1e3:.4g} ms (scaled to {REF_MS} "
          f"ms); raw set-up {setup[1]:.4g} s")
    for cmd in SUBCOMMANDS:
        samples = [t for i, op in enumerate(runner.ops) if op.cmd == cmd
                   for t in runner.scaled[i]]
        raw = statistics.mean(runner.op_medians(cmd, runner.raw))
        print(f"  {cmd:12s} {percentile_note(samples)} "
              f"raw {raw * 1e3:.4g}ms")
    print(f"  error_rate   {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    return metrics


def selfcheck(cli, tracer, directory: str) -> list[str]:
    """Counts from the trace against a hand count and the recorded baseline."""
    import capedu.integrator
    problems = []
    crit1 = workloads.write_scenario(
        os.path.join(directory, "crit1.json"), "basic", workloads.BASELINE,
        4, 1, workloads.T, 1.0)
    tracer.op = "selfcheck"
    start = len(tracer.spans)
    capedu.integrator.integrate(lambda y: -y, [1.0], 0.0, 1.0,
                                sample_step=0.1)
    calls, rhs, steps = tracing.integrate_counts(tracer.spans[start:])
    print(f"  selfcheck y'=-y: {calls} call, {rhs} RHS calls, {steps} steps")
    if (calls, steps) != (1, TINY_STEPS):
        problems.append(f"tiny run: {steps} steps, hand count {TINY_STEPS}")
    for label, argv, expected in BASELINE_RHS:
        start = len(tracer.spans)
        argv = [a.format(crit1=crit1) for a in argv]
        out = os.path.join(directory, "selfcheck.out")
        if cli.run(argv + ["--out", out]) != 0:
            problems.append(f"{label}: exit code not 0")
            continue
        calls, rhs, _ = tracing.integrate_counts(tracer.spans[start:])
        print(f"  selfcheck {label}: {rhs} RHS calls (recorded {expected})")
        if (calls, rhs) != (1, expected):
            problems.append(f"{label}: {rhs} RHS calls, recorded {expected}")
    tracer.op = None
    return problems


def traced_run(args, cli, runner: Runner, directory: str) -> tuple[dict, bool]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = selfcheck(cli, tracer, directory)
    finally:
        tracer.uninstall()
    plain, traced, walls, counts = [], [], [], []
    op_base = 0
    start = time.perf_counter()

    def set_op(i: int) -> None:
        tracer.op = op_base + i

    while True:
        tracing.assert_untraced()
        wall, total = runner.one_pass()
        plain.append(total)
        walls.append(wall)
        first = len(tracer.spans)
        tracer.install()
        try:
            wall, total = runner.one_pass(set_op)
            traced.append(total)
            walls.append(wall)
        finally:
            tracer.op = None
            tracer.uninstall()
        op_base += len(runner.ops)
        counts.append(tracing.pass_counts(tracer.spans[first:]))
        elapsed = time.perf_counter() - start
        if elapsed + 2 * statistics.median(walls) > args.seconds:
            break
    if any(c != counts[0] for c in counts):
        problems.append(f"traced passes gave different counts: {counts}")
    spans = [s for s in tracer.spans if isinstance(s.op, int)]
    metrics, shares = tracing.layer_metrics(spans, len(traced))
    n_ops = len(traced) * len(runner.ops)
    metrics["cli.bytes_out"] = (runner.bytes_out / runner.attempted, "B")
    metrics["tracing.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "frac")
    tracer.write(os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}"
                                        ".jsonl"))
    print(f"workload {args.workload} seed {args.seed}: {len(traced)} traced "
          f"and {len(plain)} untraced passes, {n_ops} traced ops")
    for layer, share in shares.items():
        print(f"  share of traced CPU time  {layer:12s} {share:.4f}")
    for msg in problems:
        print(f"  selfcheck FAILED: {msg}")
    return metrics, not problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.require_source()
    # sweep runs as users run it: worker count from os.cpu_count()
    os.environ.pop("CAPEDU_JOBS", None)
    import capedu.cli as cli
    tracing.capture_originals()

    os.makedirs(WORK_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        reference_kernel()                  # warm-up
        *setup, probe_dir = measure_setup(args.workload, args.seed, directory)
        main_dir = os.path.join(directory, "inputs")
        os.makedirs(main_dir)
        ops = workloads.generate(args.workload, args.seed, main_dir)
        correct = same_inputs(probe_dir, main_dir)
        if not correct:
            print("the same seed generated different inputs")
        runner = Runner(cli, ops)
        tracing.assert_untraced()
        if args.trace:
            metrics, ok = traced_run(args, cli, runner, directory)
            correct = correct and ok
        else:
            walls = []
            start = time.perf_counter()
            while True:
                walls.append(runner.one_pass()[0])
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(walls) > args.seconds:
                    break
            metrics = end_to_end(args, runner, len(walls), setup)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"  sweep workers (os.cpu_count()): {os.cpu_count()}")
    for msg in runner.errors[:20]:
        print(f"  FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    correct = correct and not runner.errors
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
