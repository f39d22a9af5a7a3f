"""Command-line front end: one subcommand per reproducible artifact."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

import numpy as np

from . import chaos as chaos_mod
from . import control as control_mod
from . import scenario_io
from .analysis import controlled_equilibrium, equilibrium_report
from .errors import CapEduError, ValidationError
from .integrator import CHAOS_SETTINGS, IntegratorSettings
from .model import NE9_B_DEFAULT, NE9_START_DEFAULT

# errors raised by the library exit with their class's exit_code (2 or 3)
EXIT_OK = 0
EXIT_USAGE = 1


def _write_output(text: str, out: str | None):
    """Atomic write: temp file in the target directory, then rename."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".capedu-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # name the user's path, not the temp file
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _read(path: str, field: str) -> str:
    """The text of the file at path, which must be UTF-8 (ValidationError
    naming field, scenario or csv, if it is not)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(field, f"not UTF-8 text: {exc.reason} at "
                                         f"offset {exc.start}") from None


def _load(path: str) -> scenario_io.Scenario:
    scenario = scenario_io.load_scenario(_read(path, "scenario"))
    for warning in scenario.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return scenario


def _split(sep: str, cast, form: str, size: int | None = 2):
    """argparse type for size numbers joined by sep (any count if None)."""
    def parse(text: str) -> tuple:
        parts = text.split(sep)
        try:
            if size is None or len(parts) == size:
                return tuple(map(cast, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return parse


def _cmd_simulate(args) -> str:
    traj = scenario_io.run_scenario(_load(args.scenario))
    if traj.constraint_violation:
        print("warning: s_r left its admissible interval during the run",
              file=sys.stderr)
    return scenario_io.write_trajectory_csv(traj)


def _cmd_equilibrium(args) -> str:
    scenario = _load(args.scenario)
    if scenario.chaos is not None:  # the modulated system has none
        print("warning: chaotic scenario: equilibrium of the unmodulated "
              "economy (c = 0)", file=sys.stderr)
    if scenario.control is not None:
        report = controlled_equilibrium(scenario.params, scenario.control.p)
    else:
        report = equilibrium_report(scenario.params)
    lines = [
        f"K0={report.K0:.7g}",
        f"E0={report.E0:.7g}",
        f"Y0={report.Y0:.7g}",
        "eigenvalues=" + ",".join(f"{e:.7g}" for e in report.eigenvalues),
        f"class={report.classification.value}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> str:
    scenario = _load(args.scenario)
    spec = scenario_io.SweepSpec(base=scenario, parameter=args.param,
                                 values=args.values, report_time=args.at)
    return scenario_io.write_sweep_csv(scenario_io.run_sweep(spec))


def _cmd_tipping(args) -> str:
    scenario = _load(args.scenario)
    s_r0 = args.s_r0
    if s_r0 is None:
        s_r0 = scenario.control.s_r0 if scenario.control is not None else 0.1
    horizon = args.horizon if args.horizon is not None else scenario.horizon
    result = control_mod.find_tipping(
        scenario.params, scenario.initial, s_r0, horizon,
        args.p_min, args.p_max, args.tol, scenario.integrator)
    lines = [
        f"p_star={result.p_star:.6g}",
        f"bracket={result.bracket[0]:.6g},{result.bracket[1]:.6g}",
        f"growth_at_bracket={result.growth_at_bracket[0]:.6g},"
        f"{result.growth_at_bracket[1]:.6g}",
        f"horizon={horizon:.6g}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_chaos(args) -> str:
    settings = IntegratorSettings(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    raw = chaos_mod.simulate_ne9(b=args.b, x0=args.x0, y0=args.y0, z0=args.z0,
                                 horizon=args.horizon, settings=settings,
                                 sample_step=args.sample_step)
    average = chaos_mod.running_average(raw.times, raw.states[:, 0])
    return f"A({args.horizon:g})={average[-1]:.6g}\n"


def _cmd_phase(args) -> str:
    scenario = _load(args.scenario)
    portrait = scenario_io.phase_portrait(
        scenario.params, args.k_range, args.e_range, args.grid,
        args.horizon, scenario.integrator)
    return scenario_io.write_phase_csv(portrait)


def _cmd_plot(args) -> str:
    header, table = scenario_io.read_trajectory_csv(_read(args.csv, "csv"))
    wanted = args.columns.split(",") if args.columns else header[1:]
    for name in [header[0], *wanted]:
        if name not in header:
            raise ValidationError("columns", f"no column {name!r} in CSV")
        bad = np.flatnonzero(~np.isfinite(table[:, header.index(name)]))
        if bad.size:
            raise ValidationError(
                name, f"empty or non-finite value in data row {bad[0] + 1}")
    x = table[:, 0]
    series = [(name, x, table[:, header.index(name)]) for name in wanted]
    return scenario_io.render_svg(series, title=args.title)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capedu",
        description="Simulate and analyse the capital-education growth model.")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # every subcommand's --out
    out.add_argument("--out", default=None,
                     help="output file (default: stdout); written atomically")
    add_parser = functools.partial(sub.add_parser, parents=[out])

    def scenario_flag(p):
        p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON document")

    p = add_parser("simulate", help="run one scenario, emit trajectory CSV")
    scenario_flag(p)

    p = add_parser("equilibrium",
                   help="closed-form equilibrium, eigenvalues, stability")
    scenario_flag(p)

    p = add_parser("sweep", help="rerun a scenario over parameter values")
    scenario_flag(p)
    p.add_argument("--param", required=True,
                   help="field of a block of the scenario to vary "
                        "(delta_r, s_r, p, c, K, rel_tol, ...)")
    p.add_argument("--values", required=True,
                   type=_split(",", float, "comma-separated numbers", None),
                   help="comma-separated parameter values")
    p.add_argument("--at", type=float, required=True,
                   help="report time for Y and C")

    p = add_parser("tipping",
                   help="find the consumption target where "
                        "horizon output returns to its initial value")
    scenario_flag(p)
    p.add_argument("--p-min", type=float, required=True)
    p.add_argument("--p-max", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="bracket width tolerance in p (default 1e-3)")
    p.add_argument("--horizon", type=float, default=None,
                   help="override the scenario horizon")
    p.add_argument("--s-r0", dest="s_r0", type=float, default=None,
                   help="initial education investment fraction "
                        "(default: scenario control block, else 0.1)")

    p = add_parser("chaos",
                   help="run the chaotic driver, print its running average")
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--b", type=float, default=NE9_B_DEFAULT,
                   help="dissipation constant of the driver")
    p.add_argument("--x0", type=float, default=NE9_START_DEFAULT[0])
    p.add_argument("--y0", type=float, default=NE9_START_DEFAULT[1])
    p.add_argument("--z0", type=float, default=NE9_START_DEFAULT[2])
    p.add_argument("--sample-step", type=float,
                   default=chaos_mod.DEFAULT_SAMPLE_STEP)
    p.add_argument("--rel-tol", type=float, default=CHAOS_SETTINGS.rel_tol)
    p.add_argument("--abs-tol", type=float, default=CHAOS_SETTINGS.abs_tol)

    p = add_parser("phase",
                   help="vector-field samples plus orbits on a grid")
    scenario_flag(p)
    p.add_argument("--k-range", required=True, type=_split(":", float, "LO:HI"),
                   help="LO:HI for capital")
    p.add_argument("--e-range", required=True, type=_split(":", float, "LO:HI"),
                   help="LO:HI for education")
    p.add_argument("--grid", default="8x8", type=_split("x", int, "NKxNE"),
                   help="NKxNE node counts")
    p.add_argument("--horizon", type=float, default=300.0)

    p = add_parser("plot", help="render a trajectory CSV as an SVG chart")
    p.add_argument("--csv", required=True, help="trajectory CSV file")
    p.add_argument("--columns", default="Y",
                   help="comma-separated columns to plot (default Y)")
    p.add_argument("--title", default="")

    return parser


# run's parser, built on its first call (not at import) and kept for the
# process; it holds no handlers, so a patched _cmd_* is what run calls
_parser = functools.cache(build_parser)


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; map the latter to 1
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handler = globals()[f"_cmd_{args.command}"]
    try:
        _write_output(handler(args), args.out)  # _cmd_* return their text
        return EXIT_OK
    except CapEduError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
