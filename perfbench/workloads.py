"""Workload inputs, op lists and output checks for the capedu benchmark.

Each workload is a fixed list of CLI invocations (ops) built from a seed.
``generate`` writes the inputs an op list needs (scenario files, CSVs) into
a directory and returns the ops; the same seed gives byte-identical inputs.
Every op carries a check that compares the op's output file with a
closed-form reference from ``capedu.analysis`` (or with an exact invariant)
and returns the largest relative deviation it saw.

Run as a script, this module is the set-up probe: a fresh interpreter that
imports ``capedu.cli`` and generates one workload's inputs.

    python3 perfbench/workloads.py --workload ensemble --seed 1 --dir DIR
"""

from __future__ import annotations

import json
import math
import os
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")


def require_source() -> None:
    """Put the checkout's ``src`` on the path, or exit if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "capedu", "cli.py")):
        print(f"error: no capedu sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    cmd: str                      # CLI subcommand
    argv: list[str]               # full argv for capedu.cli.run
    out: str                      # the op's --out file
    check: Callable[[str], float]  # output path -> largest relative deviation
    ref: bool = False             # seed-independent op that feeds oracle_err
    threads: int = 1              # threads the op computes on


# --- closed-form references -------------------------------------------------

# Endpoint checks allow the transient the closed form leaves at time T:
# |state(T) - equilibrium| / equilibrium <= OFFSET * exp(Re(lambda_1) * T).
# OFFSET bounds the initial distance from the equilibrium in these inputs.
OFFSET = 50.0
FLOOR = 1e-6            # integration error allowance at the default tolerances
CONSERVATION = 1e-12    # C + I_k + I_r = Y holds to rounding


def _analysis():
    from capedu import analysis, model
    return analysis, model


def _params(p: dict):
    _, model = _analysis()
    return model.ModelParams(**p)


def slowest_rate(p: dict, p_target: float | None = None) -> float:
    """|Re| of the slowest eigenvalue at the (controlled) equilibrium."""
    analysis, _ = _analysis()
    mp = _params(p)
    if p_target is None:
        return -analysis.eigen_basic(mp)[0].real
    rep = analysis.controlled_equilibrium(mp, p_target)
    return min(-e.real for e in rep.eigenvalues)


def endpoint_tol(rate: float, horizon: float) -> float:
    return max(FLOOR, OFFSET * math.exp(-rate * horizon))


def basic_eq(p: dict) -> tuple[float, float, float]:
    analysis, _ = _analysis()
    rep = analysis.equilibrium_report(_params(p))
    return rep.K0, rep.E0, rep.Y0


def controlled_eq(p: dict, target: float):
    analysis, _ = _analysis()
    return analysis.controlled_equilibrium(_params(p), target)


def tipping_root(p: dict, y_start: float) -> float | None:
    """Closed-form p with controlled_equilibrium(p).Y0 == Y(0), by bisection."""
    lo, hi = 1e-6, 1.0 - p["s_k"] - 1e-6
    f_lo = controlled_eq(p, lo).Y0 - y_start
    f_hi = controlled_eq(p, hi).Y0 - y_start
    if f_lo * f_hi > 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = controlled_eq(p, mid).Y0 - y_start
        if f_mid == 0 or hi - lo < 1e-15:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def production(p: dict, K: float, E: float) -> float:
    return E ** p["alpha"] * K ** p["beta"]


# --- output readers and checks -----------------------------------------------

def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckFailed(f"{path}: empty output")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_table(path: str) -> dict[str, list[float]]:
    header, rows = read_csv(path)
    cols = {name: [] for name in header}
    for row in rows:
        if len(row) != len(header):
            raise CheckFailed(f"{path}: ragged row {row}")
        for name, v in zip(header, row):
            cols[name].append(float(v))
    return cols


def read_keyvals(path: str) -> dict[str, str]:
    with open(path) as fh:
        pairs = [ln.split("=", 1) for ln in fh.read().splitlines() if ln]
    return {k: v for k, v in pairs}


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def conservation(cols: dict[str, list[float]]) -> float:
    """C + I_k + I_r = Y on every row; returns the largest relative residual."""
    worst = 0.0
    for C, Ik, Ir, Y in zip(cols["C"], cols["I_k"], cols["I_r"], cols["Y"]):
        resid = abs(C + Ik + Ir - Y)
        need(resid <= CONSERVATION * (abs(C) + abs(Ik) + abs(Ir)),
             f"C + I_k + I_r != Y: residual {resid:.3g} at Y={Y}")
        worst = max(worst, resid / abs(Y))
    return worst


def check_trajectory(p: dict, horizon: float,
                     target: float | None = None) -> Callable[[str], float]:
    """Trajectory CSV: conservation on every row, endpoint vs equilibrium."""
    if target is None:
        K0, E0, Y0 = basic_eq(p)
        extra = {}
    else:
        rep = controlled_eq(p, target)
        K0, E0, Y0 = rep.K0, rep.E0, rep.Y0
        extra = {"s_r": 1.0 - p["s_k"] - target}
    tol = endpoint_tol(slowest_rate(p, target), horizon)

    def check(path: str) -> float:
        cols = read_table(path)
        need(cols["t"][-1] == horizon, f"last sample at t={cols['t'][-1]}")
        worst = conservation(cols)
        ends = {"K": K0, "E": E0, "Y": Y0, **extra}
        for name, ref in ends.items():
            dev = rel(cols[name][-1], ref)
            need(dev <= tol, f"{name}(T)={cols[name][-1]} vs closed form "
                             f"{ref} (rel {dev:.3g} > {tol:.3g})")
            worst = max(worst, dev)
        return worst
    return check


def check_chaotic(p: dict, horizon: float,
                  reference_y: Callable[[], list[float]] | None = None):
    """Chaotic trajectory CSV: conservation on every row.  With c = 0 the
    economy is the basic system: Y equals the basic run's Y (crit 8) and the
    endpoint is the basic closed-form equilibrium."""
    endpoint = check_trajectory(p, horizon) if reference_y else None

    def check(path: str) -> float:
        cols = read_table(path)
        if endpoint is None:
            return conservation(cols)
        worst = endpoint(path)
        ref = reference_y()
        need(len(ref) == len(cols["Y"]), "c=0 run and basic run differ "
                                          "in sample count")
        dev = max(abs(a - b) for a, b in zip(cols["Y"], ref))
        need(dev < 1e-9, f"c=0 deviates from the basic run by {dev:.3g}")
        return max(worst, dev / min(ref))
    return check


def check_sweep(p: dict, name: str, values: list[float], horizon: float):
    """Sweep CSV: one row per value, Y and C at T vs the closed form."""
    refs = []
    for v in values:
        q = dict(p, **{name: v})
        Y0 = basic_eq(q)[2]
        refs.append((v, Y0, (1.0 - q["s_k"] - q["s_r"]) * Y0,
                     endpoint_tol(slowest_rate(q), horizon)))

    def check(path: str) -> float:
        header, rows = read_csv(path)
        need(header == ["value", "Y", "C", "error"], f"sweep header {header}")
        need(len(rows) == len(refs), f"{len(rows)} sweep rows, "
                                     f"expected {len(refs)}")
        worst = 0.0
        for row, (v, Y0, C0, tol) in zip(rows, refs):
            need(row[3] == "", f"sweep row {v} failed: {row[3]}")
            need(float(row[0]) == v, f"sweep row value {row[0]} != {v}")
            dev = max(rel(float(row[1]), Y0), rel(float(row[2]), C0))
            need(dev <= tol, f"{name}={v}: Y={row[1]} vs closed form {Y0} "
                             f"(rel {dev:.3g} > {tol:.3g})")
            worst = max(worst, dev)
        return worst
    return check


# tipping prints the bracket with 6 significant digits
PRINT_6G = 5e-6


def check_tipping(p: dict, y_start: float, tol: float):
    """Closed-form root of Y0(p) = Y(0) lies in the returned bracket."""
    root = tipping_root(p, y_start)

    def check(path: str) -> float:
        kv = read_keyvals(path)
        lo, hi = (float(x) for x in kv["bracket"].split(","))
        g_lo, g_hi = (float(x) for x in kv["growth_at_bracket"].split(","))
        p_star = float(kv["p_star"])
        need(hi - lo <= tol * (1 + PRINT_6G), f"bracket [{lo}, {hi}] wider "
                                              f"than tol {tol}")
        need(g_lo * g_hi <= 0, f"no sign change in growth {g_lo}, {g_hi}")
        need(lo <= p_star <= hi, f"p_star {p_star} outside [{lo}, {hi}]")
        need(lo * (1 - PRINT_6G) <= root <= hi * (1 + PRINT_6G),
             f"closed-form root {root:.6g} outside bracket [{lo}, {hi}]")
        return 0.0
    return check


def check_phase(p: dict, nodes: int, horizon: float):
    """Phase CSV: field rows equal the model formula, orbits end at the
    equilibrium."""
    K0, E0, _ = basic_eq(p)
    tol = endpoint_tol(slowest_rate(p), horizon)

    def check(path: str) -> float:
        header, rows = read_csv(path)
        need(header == ["record", "index", "t", "K", "E", "dK", "dE"],
             f"phase header {header}")
        field_rows = [r for r in rows if r[0] == "field"]
        need(len(field_rows) == nodes, f"{len(field_rows)} field samples")
        worst = 0.0
        for r in field_rows:
            K, E, dK, dE = (float(x) for x in r[3:7])
            Y = production(p, K, E)
            for got, gain, loss in ((dK, p["s_k"] * Y, p["delta_k"] * K),
                                    (dE, p["s_r"] * Y, p["delta_r"] * E)):
                need(abs(got - (gain - loss)) <= CONSERVATION * (gain + loss),
                     f"field sample at K={K}, E={E} is {got}")
        last = {}
        for r in rows:
            if r[0] == "orbit":
                last[r[1]] = r
        need(len(last) == nodes, f"{len(last)} orbits, expected {nodes}")
        for r in last.values():
            need(float(r[2]) == horizon, f"orbit ends at t={r[2]}")
            dev = max(rel(float(r[3]), K0), rel(float(r[4]), E0))
            need(dev <= tol, f"orbit {r[1]} ends {dev:.3g} from equilibrium")
            worst = max(worst, dev)
        return worst
    return check


def check_equilibrium(p: dict, target: float | None = None):
    """Equilibrium report vs the closed form, to its 7 printed digits."""
    analysis, _ = _analysis()
    if target is None:
        rep = analysis.equilibrium_report(_params(p))
        s_r = p["s_r"]
    else:
        rep = analysis.controlled_equilibrium(_params(p), target)
        s_r = 1.0 - p["s_k"] - target

    def check(path: str) -> float:
        kv = read_keyvals(path)
        K0, E0, Y0 = float(kv["K0"]), float(kv["E0"]), float(kv["Y0"])
        for got, ref in ((K0, rep.K0), (E0, rep.E0), (Y0, rep.Y0)):
            need(rel(got, ref) <= 1e-6, f"printed {got} vs closed form {ref}")
        # the defining equations, from the printed values alone
        need(rel(p["s_k"] * Y0, p["delta_k"] * K0) <= 3e-6, "s_k*Y0 != d_k*K0")
        need(rel(s_r * Y0, p["delta_r"] * E0) <= 3e-6, "s_r*Y0 != d_r*E0")
        eigs = [complex(e.replace("i", "j")) for e in
                kv["eigenvalues"].split(",")]
        need(len(eigs) == len(rep.eigenvalues), "eigenvalue count")
        for got, ref in zip(eigs, rep.eigenvalues):
            need(abs(got - ref) <= 1e-6 * max(1.0, abs(ref)),
                 f"eigenvalue {got} vs {ref}")
        need(kv["class"] == rep.classification.value, f"class {kv['class']}")
        return 0.0
    return check


def check_chaos(path: str) -> float:
    """Running average A(100) of x(t); crit 7 puts it at 0.14 +- 0.05."""
    with open(path) as fh:
        value = float(fh.read().strip().split("=")[1])
    need(abs(value - 0.14) <= 0.05, f"A(100) = {value}, not 0.14 +- 0.05")
    return 0.0


SVG_NS = "{http://www.w3.org/2000/svg}"


def check_plot(csv_path: str, columns: list[str]):
    """SVG parses as XML and has one polyline per column with one point per
    CSV row, spanning the plot area."""
    def check(path: str) -> float:
        with open(csv_path) as fh:
            rows = sum(1 for ln in fh if ln.strip()) - 1
        root = ET.parse(path).getroot()
        need(root.tag == SVG_NS + "svg", f"root element {root.tag}")
        lines = root.findall(SVG_NS + "polyline")
        need(len(lines) == len(columns), f"{len(lines)} polylines")
        for line in lines:
            pts = line.get("points").split()
            need(len(pts) == rows, f"{len(pts)} points for {rows} rows")
            xs = [float(pt.split(",")[0]) for pt in (pts[0], pts[-1])]
            need(xs == [70.0, 780.0], f"x extent {xs}")
            for pt in pts:
                y = float(pt.split(",")[1])
                need(40.0 <= y <= 450.0, f"point {pt} outside the plot area")
        return 0.0
    return check


# --- input generation ----------------------------------------------------------

BASELINE = {"s_k": 0.4, "s_r": 0.1, "delta_k": 0.15, "delta_r": 0.25,
            "alpha": 0.2, "beta": 0.35}
CRIT1_VALUES = [0.25, 0.23, 0.21, 0.19, 0.17, 0.15]
T = 200.0
TIP_WIDTH = 0.15
# seeded draws must converge to their closed form: |Re lambda_1| * T >= 20
CONVERGED = 20.0


def write_scenario(path: str, kind: str, p: dict, K: float, E: float,
                   horizon: float, sample_step: float, **blocks) -> str:
    doc = {"kind": kind, "params": p, "initial": {"K": K, "E": E},
           "horizon": horizon, "sample_step": sample_step, **blocks}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def load_doc(name: str) -> dict:
    with open(os.path.join(SCENARIOS, name)) as fh:
        return json.load(fh)


class Draws:
    """Seeded parameter draws, each checked against the closed form."""

    def __init__(self, seed: int):
        import numpy as np
        self.rng = np.random.default_rng(seed)

    def u(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def stable(self, horizon: float) -> dict:
        while True:
            p = {"s_k": self.u(0.25, 0.45), "s_r": self.u(0.08, 0.2),
                 "delta_k": self.u(0.12, 0.3), "delta_r": self.u(0.12, 0.3),
                 "alpha": self.u(0.15, 0.3), "beta": self.u(0.25, 0.4)}
            if slowest_rate(p) * horizon >= CONVERGED:
                return p

    def start(self) -> tuple[float, float]:
        return self.u(1.0, 5.0), self.u(0.5, 2.0)

    def sweep(self, horizon: float, n: int) -> tuple[dict, str, list[float]]:
        while True:
            p = self.stable(horizon)
            name = ("delta_r", "delta_k", "s_r", "s_k")[int(self.rng.integers(4))]
            lo, hi = p[name] * self.u(0.7, 0.9), p[name] * self.u(1.1, 1.3)
            values = [float(v) for v in
                      (lo + (hi - lo) * i / (n - 1) for i in range(n))]
            qs = [dict(p, **{name: v}) for v in values]
            if all(q["s_k"] + q["s_r"] <= 0.9
                   and slowest_rate(q) * horizon >= CONVERGED for q in qs):
                return p, name, values

    def controlled(self, horizon: float) -> tuple[dict, float]:
        while True:
            p = self.stable(horizon)
            target = self.u(0.3, 0.5)
            if (1.0 - p["s_k"] - target > 0.05
                    and slowest_rate(p, target) * horizon >= CONVERGED):
                return p, target

    def tipping(self, horizon: float, width: float):
        """Parameters, start and a bracket of the given width around the
        closed-form root, converged at both ends."""
        while True:
            p = self.stable(horizon)
            K, E = self.start()
            root = tipping_root(p, production(p, K, E))
            if root is None:
                continue
            lo = root - width * self.u(0.2, 0.8)
            hi = lo + width
            if lo < 0.2 or hi > 1.0 - p["s_k"] - 0.03:
                continue
            if all(slowest_rate(p, q) * horizon >= CONVERGED
                   for q in (lo, root, hi)):
                return p, K, E, lo, hi


# sweep's worker threads without --jobs and CAPEDU_JOBS: os.cpu_count()
SWEEP_JOBS = os.cpu_count() or 1


def _fmt(x: float) -> str:
    return repr(float(x))


class OpList:
    """Collects ops; each op writes to its own file in the run directory."""

    def __init__(self, directory: str):
        self.dir = directory
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def add(self, cmd: str, args: list[str], check, ref: bool = False,
            ext: str = "txt", threads: int = 1) -> str:
        out = self.path(f"op{len(self.ops):02d}_{cmd}.{ext}")
        self.ops.append(Op(cmd, [cmd, *args, "--out", out], out, check, ref,
                           threads))
        return out

    def simulate(self, scenario: str, check, ref=False) -> str:
        return self.add("simulate", ["--scenario", scenario], check, ref, "csv")

    def equilibrium(self, scenario: str, check, ref=False) -> str:
        return self.add("equilibrium", ["--scenario", scenario], check, ref)

    def sweep(self, scenario: str, name: str, values: list[float],
              horizon: float, check, ref=False) -> str:
        return self.add("sweep", ["--scenario", scenario, "--param", name,
                                  "--values", ",".join(map(_fmt, values)),
                                  "--at", _fmt(horizon)], check, ref, "csv",
                        min(SWEEP_JOBS, len(values)))

    def tipping(self, scenario: str, lo: float, hi: float, tol: float,
                check, ref=False) -> str:
        return self.add("tipping", ["--scenario", scenario,
                                    "--p-min", _fmt(lo), "--p-max", _fmt(hi),
                                    "--tol", _fmt(tol)], check, ref)

    def phase(self, scenario: str, k_range, e_range, grid: str,
              horizon: float, check, ref=False) -> str:
        return self.add("phase", ["--scenario", scenario,
                                  "--k-range", "%r:%r" % k_range,
                                  "--e-range", "%r:%r" % e_range,
                                  "--grid", grid,
                                  "--horizon", _fmt(horizon)],
                        check, ref, "csv")

    def chaos(self, args: list[str], check, ref=False) -> str:
        return self.add("chaos", args, check, ref)

    def plot(self, csv: str, columns: list[str], ref=False) -> str:
        return self.add("plot", ["--csv", csv, "--columns", ",".join(columns),
                                 "--title", "capedu"],
                        check_plot(csv, columns), ref, "svg")


def _seeded_tipping(b: OpList, d: Draws, tol: float, i: int = 0) -> None:
    p, K, E, lo, hi = d.tipping(T, TIP_WIDTH)
    sc = write_scenario(b.path(f"tipping{i}.json"), "controlled", p, K, E, T,
                        T, control={"p": 0.5 * (lo + hi), "s_r0": 0.1})
    b.tipping(sc, lo, hi, tol, check_tipping(p, production(p, K, E), tol))


def _crit6(b: OpList, tol: float) -> None:
    doc = load_doc("controlled_p047.json")
    p, init = doc["params"], doc["initial"]
    b.tipping(os.path.join(SCENARIOS, "controlled_p047.json"), 0.40, 0.55, tol,
              check_tipping(p, production(p, init["K"], init["E"]), tol),
              ref=True)


def ensemble(b: OpList, d: Draws) -> None:
    """Many short independent 2-D/3-D runs; coarse or endpoint sampling."""
    crit1 = write_scenario(b.path("crit1.json"), "basic", BASELINE, 4, 1, T, 1.0)
    # a coarse basic run and a controlled run; plotted and reported below
    p_basic = d.stable(T)
    K, E = d.start()
    basic = write_scenario(b.path("basic.json"), "basic", p_basic, K, E, T, 5.0)
    p_ctrl, target = d.controlled(T)
    K, E = d.start()
    ctrl = write_scenario(b.path("controlled.json"), "controlled", p_ctrl,
                          K, E, T, 5.0, control={"p": target, "s_r0": 0.1})
    p_sw, name, values = d.sweep(T, len(CRIT1_VALUES))
    sw = write_scenario(b.path("sweep.json"), "basic", p_sw, *d.start(), T, 1.0)
    p_sw2, name2, values2 = d.sweep(T, len(CRIT1_VALUES))
    sw2 = write_scenario(b.path("sweep2.json"), "basic", p_sw2, *d.start(), T,
                         1.0)
    p047 = load_doc("controlled_p047.json")
    p_ph = d.stable(300.0)
    k_lo, e_lo = d.u(0.5, 2.0), d.u(0.1, 0.5)
    ph = write_scenario(b.path("phase.json"), "basic", p_ph, 4, 1, T, 1.0)
    p_ph2 = d.stable(300.0)
    ph2 = write_scenario(b.path("phase2.json"), "basic", p_ph2, 4, 1, T, 1.0)

    b.sweep(crit1, "delta_r", CRIT1_VALUES, T,
            check_sweep(BASELINE, "delta_r", CRIT1_VALUES, T), ref=True)
    _crit6(b, 1e-3)
    basic_csv = b.simulate(basic, check_trajectory(p_basic, T))
    b.plot(basic_csv, ["Y", "C"])
    b.equilibrium(basic, check_equilibrium(p_basic))
    b.equilibrium(crit1, check_equilibrium(BASELINE), ref=True)
    b.chaos(["--horizon", "100", "--sample-step", "1"], check_chaos, ref=True)
    b.equilibrium(sw, check_equilibrium(p_sw))
    b.phase(ph, (k_lo, k_lo + d.u(3.0, 6.0)), (e_lo, e_lo + d.u(0.5, 1.5)),
            "3x3", 300.0, check_phase(p_ph, 9, 300.0))
    b.chaos(["--horizon", "100", "--sample-step", "1"], check_chaos, ref=True)
    b.equilibrium(ph, check_equilibrium(p_ph))
    b.sweep(sw, name, values, T, check_sweep(p_sw, name, values, T))
    _seeded_tipping(b, d, 1e-3)
    b.equilibrium(os.path.join(SCENARIOS, "controlled_p047.json"),
                  check_equilibrium(p047["params"], p047["control"]["p"]),
                  ref=True)
    csv = b.simulate(ctrl, check_trajectory(p_ctrl, T, target))
    b.plot(csv, ["Y", "C"])
    b.plot(basic_csv, ["K", "E"])
    b.sweep(sw2, name2, values2, T, check_sweep(p_sw2, name2, values2, T))
    b.equilibrium(ctrl, check_equilibrium(p_ctrl, target))
    b.phase(ph2, (1.0, 6.0), (0.3, 1.5), "2x2", 300.0,
            check_phase(p_ph2, 4, 300.0))
    b.plot(csv, ["K", "E", "s_r"])


# Horizon of the 5-D runs in dense_chaos.  The checked-in chaotic scenarios
# run to T = 200; half of that gives twice the samples per run and keeps the
# dense sampling and large CSVs.
CHAOTIC_T = 100.0


def dense_chaos(b: OpList, d: Draws) -> None:
    """A few long runs sampled densely; large CSVs."""
    doc = load_doc("chaotic_plus.json")
    p_ch = doc["params"]
    c = d.u(-0.5, 0.5)
    chaotic = write_scenario(b.path("chaotic.json"), "chaotic", p_ch,
                             doc["initial"]["K"], doc["initial"]["E"],
                             CHAOTIC_T, doc["sample_step"],
                             chaos=dict(doc["chaos"], c=c),
                             integrator=doc["integrator"])
    off_doc = dict(load_doc("chaotic_off.json"), horizon=CHAOTIC_T)
    off = write_scenario(b.path("chaotic_off.json"), "chaotic",
                         off_doc["params"], off_doc["initial"]["K"],
                         off_doc["initial"]["E"], CHAOTIC_T,
                         off_doc["sample_step"], chaos=off_doc["chaos"],
                         integrator=off_doc["integrator"])

    def sweep(i: int) -> None:
        p, name, values = d.sweep(T, 2)
        sw = write_scenario(b.path(f"sweep{i}.json"), "basic", p, *d.start(),
                            T, T)
        b.sweep(sw, name, values, T, check_sweep(p, name, values, T))
        b.equilibrium(sw, check_equilibrium(p))

    def phase(i: int) -> None:
        p = d.stable(300.0)
        ph = write_scenario(b.path(f"phase{i}.json"), "basic", p, 4, 1, T, 1.0)
        b.phase(ph, (1.0, 6.0), (0.3, 1.5), "2x2", 300.0,
                check_phase(p, 4, 300.0))
        b.equilibrium(ph, check_equilibrium(p))

    def chaos() -> None:
        b.chaos(["--horizon", "100", "--sample-step", "0.01"], check_chaos,
                ref=True)

    # two long runs of each kind and two or more small ops of every other
    # kind per pass; the equilibrium ops are short, so there are eight
    b.equilibrium(chaotic, check_equilibrium(p_ch))
    _crit6(b, 0.05)
    phase(0)
    sweep(0)
    sweep(3)
    chaos()
    csv = b.simulate(chaotic, check_chaotic(p_ch, CHAOTIC_T))
    b.plot(csv, ["Y", "C"])
    b.equilibrium(off, check_equilibrium(off_doc["params"]), ref=True)
    _seeded_tipping(b, d, 0.05)
    phase(1)
    sweep(1)
    sweep(2)
    chaos()
    csv = b.simulate(off, check_chaotic(off_doc["params"], CHAOTIC_T,
                                        basic_reference(off_doc)), ref=True)
    b.plot(csv, ["Y", "C"], ref=True)


def basic_reference(doc: dict) -> Callable[[], list[float]]:
    """Y of the basic system on a chaotic scenario's grid and tolerances,
    computed once through the library, for the c = 0 check (crit 8)."""
    cache: list[list[float]] = []

    def reference() -> list[float]:
        if not cache:
            from capedu.integrator import IntegratorSettings, integrate
            from capedu.model import basic_rhs
            p = doc["params"]
            raw = integrate(basic_rhs(_params(p)),
                            [doc["initial"]["K"], doc["initial"]["E"]],
                            0.0, doc["horizon"],
                            IntegratorSettings(**doc["integrator"]),
                            doc["sample_step"])
            cache.append([production(p, K, E) for K, E in raw.states])
        return cache[0]
    return reference


SERIES_ROWS = tuple(range(2000, 9000, 500))
BASIC_SCENARIOS = ("basic_baseline.json", "basic_equal_start.json",
                   "basic_invariant_line.json")


def write_series_csv(path: str, d: Draws, rows: int) -> str:
    """A trajectory-shaped CSV (t, K, E, Y, C) of smooth seeded curves."""
    import numpy as np
    t = np.arange(rows) * d.u(0.01, 0.1)
    cols = [d.u(1.0, 5.0) + d.u(0.1, 1.0) * np.sin(d.u(0.05, 2.0) * t
                                                    + d.u(0.0, 6.0))
            for _ in range(4)]
    with open(path, "w") as fh:
        fh.write("t,K,E,Y,C\n")
        for row in zip(t, *cols):
            fh.write(",".join(map(_fmt, row)) + "\n")
    return path


def render_io(b: OpList, d: Draws) -> None:
    """The write path beside the read path, with little integration."""
    for n in sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".json")):
        sc = load_doc(n)
        target = sc["control"]["p"] if sc["kind"] == "controlled" else None
        b.equilibrium(os.path.join(SCENARIOS, n),
                      check_equilibrium(sc["params"], target), ref=True)
    for n in BASIC_SCENARIOS:
        sc = load_doc(n)
        csv = b.simulate(os.path.join(SCENARIOS, n),
                         check_trajectory(sc["params"], sc["horizon"]),
                         ref=True)
        b.plot(csv, ["K", "E", "Y", "C"], ref=True)
    for i, rows in enumerate(SERIES_ROWS):
        csv = write_series_csv(b.path(f"series{i}.csv"), d, rows)
        b.plot(csv, ["K", "E", "Y", "C"])
    # small ops of every other subcommand, sampled at the endpoint only;
    # a tolerance wider than the bracket makes tipping evaluate its ends only
    for i in range(2):
        p, name, values = d.sweep(T, 2)
        sw = write_scenario(b.path(f"sweep{i}.json"), "basic", p, *d.start(),
                            T, T)
        b.sweep(sw, name, values, T, check_sweep(p, name, values, T))
        _seeded_tipping(b, d, 2 * TIP_WIDTH, i)
    p = d.stable(150.0)
    ph = write_scenario(b.path("phase.json"), "basic", p, 4, 1, T, T)
    b.phase(ph, (1.0, 6.0), (0.3, 1.5), "2x2", 150.0,
            check_phase(p, 4, 150.0))
    b.chaos(["--horizon", "100", "--sample-step", "1", "--rel-tol", "1e-5",
             "--abs-tol", "1e-7"], check_chaos, ref=True)


WORKLOADS = {"ensemble": ensemble, "dense_chaos": dense_chaos,
             "render_io": render_io}


def generate(workload: str, seed: int, directory: str) -> list[Op]:
    """Write the workload's inputs for this seed into directory; return ops."""
    b = OpList(directory)
    WORKLOADS[workload](b, Draws(seed))
    return b.ops


def main(argv: list[str]) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    require_source()
    import capedu.cli  # noqa: F401  (the import is part of set-up)
    generate(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
