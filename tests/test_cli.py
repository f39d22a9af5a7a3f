import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from capedu import cli, scenario_io
from capedu.cli import run
from capedu.errors import (
    CapEduError,
    DomainError,
    NonFiniteState,
    NoSignChange,
    StepLimitExceeded,
    StructurallyUnstable,
    ValidationError,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


@pytest.fixture
def basic_scenario(tmp_path):
    doc = {
        "kind": "basic",
        "params": {"s_k": 0.4, "s_r": 0.1, "delta_k": 0.15, "delta_r": 0.25,
                   "alpha": 0.2, "beta": 0.35},
        "initial": {"K": 4, "E": 1},
        "horizon": 200,
        "sample_step": 1.0,
    }
    path = tmp_path / "basic.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_writes_csv(basic_scenario, tmp_path):
    out = tmp_path / "run.csv"
    assert run(["simulate", "--scenario", str(basic_scenario),
                "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "t,K,E,Y,C,I_k,I_r"
    assert len(lines) == 203  # header + 201 samples + trailing newline


def test_simulate_to_stdout(basic_scenario, capsys):
    assert run(["simulate", "--scenario", str(basic_scenario)]) == 0
    assert capsys.readouterr().out.startswith("t,K,E,")


def test_equilibrium_report(basic_scenario, capsys):
    assert run(["equilibrium", "--scenario", str(basic_scenario)]) == 0
    out = capsys.readouterr().out
    assert "K0=3.805533" in out
    assert "E0=0.57083" in out
    assert "Y0=1.427075" in out
    assert "class=StableNode" in out


def test_equilibrium_controlled(capsys):
    path = SCENARIO_DIR / "controlled_p047.json"
    assert run(["equilibrium", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Y0=1.603571" in out
    assert "-1.603571" in out  # third eigenvalue


def test_equilibrium_controlled_under_a_floor(tmp_path, capsys):
    # s_r* = 0.05 lies below the floor 0.1: a run is flagged, and the
    # equilibrium is reported as without a floor
    doc = json.loads((SCENARIO_DIR / "controlled_p055.json").read_text())
    assert doc["control"]["p"] == 0.55
    printed = []
    for floor in (0.1, 0.0):
        doc["params"]["s_r_floor"] = floor
        path = tmp_path / f"floor_{floor}.json"
        path.write_text(json.dumps(doc))
        assert run(["equilibrium", "--scenario", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert len(printed[0].splitlines()) == 5


def test_sweep(basic_scenario, capsys):
    assert run(["sweep", "--scenario", str(basic_scenario),
                "--param", "delta_r", "--values", "0.25,0.15",
                "--at", "200"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "value,Y,C,error"
    assert lines[1].startswith("0.25,1.427")
    assert lines[2].startswith("0.15,1.790")


def test_tipping(capsys):
    path = SCENARIO_DIR / "controlled_p047.json"
    assert run(["tipping", "--scenario", str(path),
                "--p-min", "0.40", "--p-max", "0.55", "--tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    p_star = float(out.split("p_star=")[1].split("\n")[0])
    assert abs(p_star - 0.466) < 0.005


def test_chaos_average(capsys):
    assert run(["chaos", "--horizon", "100"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1])
    assert abs(value - 0.14) < 0.05


def test_phase(basic_scenario, tmp_path):
    out = tmp_path / "phase.csv"
    assert run(["phase", "--scenario", str(basic_scenario),
                "--k-range", "1:2", "--e-range", "0.5:1",
                "--grid", "2x2", "--horizon", "5", "--out", str(out)]) == 0
    assert out.read_text().startswith("record,index,t,K,E,dK,dE")


def test_plot_from_csv(basic_scenario, tmp_path):
    csv = tmp_path / "run.csv"
    svg = tmp_path / "fig.svg"
    assert run(["simulate", "--scenario", str(basic_scenario),
                "--out", str(csv)]) == 0
    assert run(["plot", "--csv", str(csv), "--columns", "Y,C",
                "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for sub in ("simulate", "equilibrium", "sweep", "tipping", "chaos",
                "phase", "plot"):
        assert run([sub, "--help"]) == 0
        assert "--" in capsys.readouterr().out


def test_usage_error_is_exit_1():
    assert run([]) == 1
    assert run(["simulate"]) == 1          # missing --scenario
    assert run(["no-such-command"]) == 1


def test_missing_file_is_exit_1(tmp_path):
    assert run(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 1


def test_validation_error_is_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "basic"}')
    assert run(["simulate", "--scenario", str(path)]) == 2


def test_numeric_error_is_exit_3(tmp_path, capsys):
    doc = {
        "kind": "basic",
        "params": {"s_k": 0.4, "s_r": 0.1, "delta_k": 0.15, "delta_r": 0.25,
                   "alpha": 0.4, "beta": 0.6},
        "initial": {"K": 4, "E": 1},
        "horizon": 10,
        "sample_step": 1.0,
    }
    path = tmp_path / "superlinear.json"
    path.write_text(json.dumps(doc))
    assert run(["equilibrium", "--scenario", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_failed_run_writes_nothing(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    out = tmp_path / "run.csv"
    assert run(["simulate", "--scenario", str(path),
                "--out", str(out)]) == 2
    assert not out.exists()
    assert list(tmp_path.glob(".capedu-*")) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "s_r", "--values", "0.1,0.2", "--at", "200"],
    ["simulate"],
], ids=["sweep", "simulate"])
def test_jobs_env_is_ignored(argv, basic_scenario, monkeypatch, capsys):
    argv = argv + ["--scenario", str(basic_scenario)]
    monkeypatch.delenv("CAPEDU_JOBS", raising=False)
    assert run(argv) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("CAPEDU_JOBS", "abc")
    assert run(argv) == 0
    assert capsys.readouterr() == (plain.out, "")


def test_jobs_flag_is_usage_error(basic_scenario, capsys):
    assert run(["sweep", "--scenario", str(basic_scenario), "--param", "s_r",
                "--values", "0.1", "--at", "200", "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert run(["sweep", "--help"]) == 0
    assert "--jobs" not in capsys.readouterr().out


def test_plot_rejects_empty_cell(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    csv.write_text("t,Y,C\n0.0,1.0,0.5\n1.0,,0.6\n2.0,1.2,0.7\n")
    svg = tmp_path / "fig.svg"
    assert run(["plot", "--csv", str(csv), "--columns", "Y",
                "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert "Y:" in err and "data row 2" in err
    assert not svg.exists()
    # an empty cell outside the plotted columns does no harm
    assert run(["plot", "--csv", str(csv), "--columns", "C",
                "--out", str(svg)]) == 0
    assert "nan" not in svg.read_text()


@pytest.mark.parametrize("rows,message", [
    ("0,1\n1,2,3\n", "data row 2 has 3 cells, the header has 2"),
    ("0,1\n1\n", "data row 2 has 1 cells, the header has 2"),
], ids=["row-too-long", "row-too-short"])
def test_plot_ragged_csv_is_exit_2(rows, message, tmp_path, capsys):
    csv = tmp_path / "run.csv"
    csv.write_text("t,Y\n" + rows)
    assert run(["plot", "--csv", str(csv)]) == 2
    assert f"error: csv: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("rows,message", [
    ("0,1\n1,abc\n", "Y: non-numeric value 'abc' in data row 2"),
    ("x,1\n1,2\n", "t: non-numeric value 'x' in data row 1"),
    ("0,1\n1,2,x\n", "csv: data row 2 has 3 cells, the header has 2"),
], ids=["in-plotted-column", "in-time-column", "in-ragged-row"])
def test_plot_non_numeric_cell_is_exit_2(rows, message, tmp_path, capsys):
    # the first bad row is named, whether it is ragged or has a bad cell
    csv = tmp_path / "run.csv"
    csv.write_text("t,Y\n" + rows)
    assert run(["plot", "--csv", str(csv)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def test_plot_header_only_csv_is_exit_2(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    csv.write_text("t,Y\n")
    assert run(["plot", "--csv", str(csv)]) == 2
    assert capsys.readouterr() == ("", "error: csv: no data rows\n")


# the exit status each error class gives on the command line
EXIT_CODES = {
    CapEduError: 3, DomainError: 3, StepLimitExceeded: 3, NonFiniteState: 3,
    StructurallyUnstable: 3, NoSignChange: 3, ValidationError: 2,
}


def test_exit_codes_cover_every_error_class():
    assert set(EXIT_CODES) == {CapEduError, *CapEduError.__subclasses__()}


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_error_exit_code(cls, basic_scenario, monkeypatch, capsys):
    assert cls.exit_code == EXIT_CODES[cls]
    exc = cls("field", "boom") if cls is ValidationError else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_equilibrium", fail)
    assert run(["equilibrium", "--scenario", str(basic_scenario)]) == \
        EXIT_CODES[cls]
    assert "error:" in capsys.readouterr().err


def test_parser_is_built_once(basic_scenario, monkeypatch, capsys):
    argv = ["equilibrium", "--scenario", str(basic_scenario)]
    assert run(argv) == 0
    first = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("parser built again")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run(argv) == 0
    assert capsys.readouterr() == first


def test_handler_is_looked_up_on_each_call(basic_scenario, monkeypatch,
                                           capsys):
    argv = ["equilibrium", "--scenario", str(basic_scenario)]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_cmd_equilibrium",
                        lambda args: f"patched {args.scenario}\n")
    assert run(argv) == 0
    assert capsys.readouterr().out == f"patched {basic_scenario}\n"


def test_many_commands_in_one_process(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    csv.write_text("t,Y\n0,1\n1,2\n")
    basic = str(SCENARIO_DIR / "basic_baseline.json")
    simulate = ["simulate", "--scenario", basic]
    sweep = ["sweep", "--scenario", basic, "--param", "delta_r", "--at", "200"]
    calls = [
        (simulate, 0),
        (sweep + ["--values", "0.25,0.21"], 0),
        (sweep + ["--values", "0.1,abc"], 1),
        (["--help"], 0),
        (["sweep", "--help"], 0),
        (["plot", "--csv", str(csv), "--columns", "nope"], 2),
        (["equilibrium", "--scenario", basic], 0),
        (simulate, 0),
    ]

    def one_round():
        seen = []
        for argv, code in calls:
            assert run(argv) == code, argv
            seen.append(capsys.readouterr())
        return seen

    first = one_round()
    assert first[0] == first[-1]  # an error or --help in between leaks nothing
    assert one_round() == first


# counts the argparse parsers built while capedu.cli is imported
IMPORT_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import capedu.cli
print(len(built))
"""


def test_import_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_tipping_p_out_of_range_is_exit_2(capsys):
    # p_max = 0.7 lies above 1 - s_k = 0.6: bad input, not a usage error
    path = SCENARIO_DIR / "controlled_p047.json"
    assert run(["tipping", "--scenario", str(path),
                "--p-min", "0.4", "--p-max", "0.7"]) == 2
    assert "error: p: need 0 < p < 1 - s_k" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--p-min", "--p-max"])
def test_tipping_nan_bracket_end_is_exit_2(flag, capsys):
    # a NaN end used to fail the empty-bracket test and exit 3
    argv = ["tipping", "--scenario", str(SCENARIO_DIR / "controlled_p047.json"),
            "--p-min", "0.40", "--p-max", "0.55"]
    argv[argv.index(flag) + 1] = "nan"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: p: need 0 < p < 1 - s_k, got p=nan" in captured.err


def test_tipping_reversed_bracket_stays_no_sign_change(capsys):
    path = SCENARIO_DIR / "controlled_p047.json"
    assert run(["tipping", "--scenario", str(path),
                "--p-min", "0.5", "--p-max", "0.45"]) == 3
    assert "error: empty bracket [0.5, 0.45]" in capsys.readouterr().err


@pytest.mark.parametrize("flag,field", [
    ("--b", "b"), ("--x0", "x0"), ("--y0", "y0"), ("--z0", "z0")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_chaos_non_finite_flag_is_exit_2(flag, field, value, capsys):
    # the rule a chaos block in a scenario file follows: exit 2, field named
    assert run(["chaos", "--horizon", "1", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {field}: must be finite, got {float(value)}\n" == \
        captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tipping_bad_tol_is_exit_2(tol, capsys):
    # a NaN tolerance used to end the search at once and print the
    # midpoint of the input bracket
    path = SCENARIO_DIR / "controlled_p047.json"
    assert run(["tipping", "--scenario", str(path), "--p-min", "0.40",
                "--p-max", "0.55", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tol: must be finite and positive" in captured.err


@pytest.mark.parametrize("k_range,e_range,field", [
    ("8:0.5", "0.1:2", "k_range"),
    ("0:8", "0.1:2", "k_range"),
    ("0.5:8", "2:2", "e_range"),
    ("1:inf", "0.5:1", "k_range"),
    ("1:2", "0.5:inf", "e_range"),
    ("-inf:2", "0.5:1", "k_range"),
])
def test_phase_bad_range_is_exit_2(k_range, e_range, field, capsys):
    path = SCENARIO_DIR / "basic_baseline.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["phase", "--scenario", str(path), f"--k-range={k_range}",
                    f"--e-range={e_range}", "--grid", "2x2",
                    "--horizon", "5"]) == 2
    assert f"error: {field}: must be positive and increasing" in \
        capsys.readouterr().err


@pytest.mark.parametrize("block,key", [
    (None, "horizon"), (None, "sample_step"), ("initial", "K"),
])
def test_non_finite_scenario_number_is_exit_2(block, key, basic_scenario,
                                              tmp_path, capsys):
    doc = json.loads(basic_scenario.read_text())
    (doc if block is None else doc[block])[key] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))  # writes the literal Infinity
    out = tmp_path / "run.csv"
    assert run(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["chaos", "--horizon", "inf"],
    ["phase", "--scenario", str(SCENARIO_DIR / "basic_baseline.json"),
     "--k-range", "1:6", "--e-range", "0.5:3", "--grid", "2x2",
     "--horizon", "inf"],
])
def test_infinite_run_length_is_exit_2(argv, capsys):
    assert run(argv) == 2
    assert "error: horizon: must be finite and positive, got inf" in \
        capsys.readouterr().err


PHASE = ["phase", "--scenario", str(SCENARIO_DIR / "basic_baseline.json"),
         "--k-range", "1:2", "--e-range", "0.5:1"]


@pytest.mark.parametrize("argv,message", [
    (["tipping", "--scenario", str(SCENARIO_DIR / "controlled_p047.json"),
      "--p-min", "0.4", "--p-max", "0.55", "--horizon", "-5"],
     "horizon: must be finite and positive, got -5.0"),
    (["chaos", "--horizon", "10", "--rel-tol", "nan"],
     "rel_tol: must be finite and positive, got nan"),
    (["chaos", "--horizon", "10", "--abs-tol", "0"],
     "abs_tol: must be finite and positive, got 0.0"),
    (["chaos", "--horizon", "10", "--sample-step", "0"],
     "sample_step: must be finite and positive, got 0.0"),
    # each sample takes a step, so these runs could never finish
    (["chaos", "--horizon", "100", "--sample-step", "1e-300"],
     "sample_step: 1e-300 gives 1e+302 samples, more than the step budget "
     "of 10000000"),
    (["chaos", "--horizon", "100", "--sample-step", "1e-6"],
     "sample_step: 1e-06 gives 1e+08 samples, more than the step budget "
     "of 10000000"),
    (PHASE + ["--grid", "1x2", "--horizon", "5"],
     "grid: must be at least 2x2, got 1x2"),
], ids=["tipping-horizon", "chaos-rel-tol", "chaos-abs-tol",
        "chaos-sample-step", "chaos-tiny-sample-step",
        "chaos-sample-step-beyond-budget", "phase-grid"])
def test_bad_run_flag_is_exit_2(argv, message, capsys):
    # the same rule as a bad value in a scenario file: exit 2, field named
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


SWEEP = ["sweep", "--scenario", str(SCENARIO_DIR / "basic_baseline.json"),
         "--param", "s_r", "--at", "10"]


@pytest.mark.parametrize("argv,message", [
    (PHASE + ["--grid", "2"], "--grid: expected NKxNE, got '2'"),
    (PHASE + ["--grid", "2x"], "--grid: expected NKxNE, got '2x'"),
    (PHASE + ["--k-range", "1"], "--k-range: expected LO:HI, got '1'"),
    (PHASE + ["--k-range", "1:2:3"],
     "--k-range: expected LO:HI, got '1:2:3'"),
    (SWEEP + ["--values", "0.1,abc"],
     "--values: expected comma-separated numbers, got '0.1,abc'"),
    (SWEEP + ["--values", ","],
     "--values: expected comma-separated numbers, got ','"),
], ids=["grid-one-part", "grid-empty-part", "range-one-part",
        "range-three-parts", "values-not-a-number", "values-empty"])
def test_malformed_flag_is_usage_error_naming_the_form(argv, message,
                                                       capsys):
    # malformed text is a usage error (exit 1), like --horizon abc; a
    # well-formed value out of range exits 2 (test_bad_run_flag_is_exit_2)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {message}\n" in captured.err


def test_float_edge_basic_run_sets_no_flag(basic_scenario, capsys):
    # s_k + s_r rounds to 1.0, so ModelParams accepts it, yet s_r > 1 - s_k;
    # a basic run varies no fraction, so neither flag may be set
    doc = json.loads(basic_scenario.read_text())
    doc["params"].update(s_k=0.5, s_r=0.5 + 2 ** -53)
    doc["horizon"] = 5
    basic_scenario.write_text(json.dumps(doc))
    scenario = scenario_io.load_scenario(basic_scenario.read_text())
    assert scenario.params.s_r > 1 - scenario.params.s_k
    traj = scenario_io.run_scenario(scenario)
    assert traj.constraint_violation is False
    assert traj.min_effective_sk is None
    assert run(["simulate", "--scenario", str(basic_scenario)]) == 0
    assert capsys.readouterr().err == ""


def test_out_into_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(PHASE + ["--grid", "2x2", "--horizon", "5",
                        "--out", str(out)]) == 1
    assert f"error: cannot write {out}: No such file or directory" in \
        capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_out_onto_directory_names_the_path(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    assert run(PHASE + ["--grid", "2x2", "--horizon", "5",
                        "--out", str(target)]) == 1
    assert f"error: cannot write {target}: Is a directory" in \
        capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [target]  # no temp file left behind
    assert list(target.iterdir()) == []


@pytest.fixture
def tiny_horizon_scenario(basic_scenario):
    # a horizon shorter than the sample step and within 1e-12 of t = 0
    doc = json.loads(basic_scenario.read_text())
    doc["horizon"] = 1e-13
    basic_scenario.write_text(json.dumps(doc))
    return basic_scenario


def test_simulate_tiny_horizon_keeps_t0(tiny_horizon_scenario, capsys):
    assert run(["simulate", "--scenario", str(tiny_horizon_scenario)]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 1e-13]
    assert rows[0].startswith("0.0,4.0,1.0,")  # the initial state at t0


def test_sweep_at_tiny_horizon(tiny_horizon_scenario, capsys):
    assert run(["sweep", "--scenario", str(tiny_horizon_scenario),
                "--param", "s_r", "--values", "0.1,0.2", "--at", "1e-13"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "value,Y,C,error"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.1", "0.2"]
    assert all(line.endswith(",") for line in lines[1:])  # no error column


def test_chaos_tiny_horizon(capsys):
    assert run(["chaos", "--horizon", "1e-13"]) == 0
    assert capsys.readouterr().out == "A(1e-13)=0.5\n"  # x stays at x0 = 0.5


def edited(path, params=None, **top):
    """Rewrite a scenario file with some params and top-level keys changed."""
    doc = json.loads(path.read_text())
    doc["params"].update(params or {})
    doc.update(top)
    path.write_text(json.dumps(doc))
    return path


def test_equal_decay_rates_print_a_node_not_a_focus(basic_scenario, capsys):
    # tr^2 - 4*det cancelled to a negative number here and printed
    # -0.15+1.862645e-09i,-0.15-1.862645e-09i and class=StableFocus
    edited(basic_scenario, dict(delta_k=0.15, delta_r=0.15,
                                alpha=5e-9, beta=5e-9))
    assert run(["equilibrium", "--scenario", str(basic_scenario)]) == 0
    out = capsys.readouterr().out
    assert "i" not in out.replace("eigenvalues", "")
    assert "eigenvalues=-0.15,-0.15\n" in out
    assert out.endswith("class=StableNode\n")


UNDERFLOW = dict(alpha=0.5, beta=0.4999, delta_k=0.9, delta_r=0.9)
OUT_OF_RANGE = "K0, E0 or Y0 outside the range of a double"


@pytest.mark.parametrize("params,top,message", [
    (dict(s_k=0.0), {}, "s_k = 0: capital only decays to zero"),
    (UNDERFLOW, {}, OUT_OF_RANGE),  # printed K0=0, E0=0, Y0=0
    (UNDERFLOW, dict(kind="controlled", control={"p": 0.5, "s_r0": 0.1}),
     OUT_OF_RANGE),  # printed class=Degenerate, from -Y0 = -0
    ({**UNDERFLOW, "delta_k": 0.01, "delta_r": 0.01}, {},
     OUT_OF_RANGE),  # printed K0=inf with a numpy RuntimeWarning
], ids=["s_k=0", "underflow", "underflow-controlled", "overflow"])
def test_no_equilibrium_a_double_holds_is_exit_3(params, top, message,
                                                 basic_scenario, capsys):
    edited(basic_scenario, params, **top)
    assert run(["equilibrium", "--scenario", str(basic_scenario)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("params", [dict(s_k=0.0), UNDERFLOW],
                         ids=["s_k=0", "underflow"])
def test_phase_without_equilibrium_writes_its_csv(params, basic_scenario,
                                                  capsys):
    edited(basic_scenario, params)
    assert run(["phase", "--scenario", str(basic_scenario), "--k-range",
                "1:2", "--e-range", "0.5:1", "--grid", "2x2",
                "--horizon", "5"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("record,index,t,K,E,dK,dE\nfield,0,,1.0,0.5,")
    assert err == ""


def test_simulate_warns_when_s_r_leaves_its_interval(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "controlled_p047.json").read_text())
    doc["control"]["s_r0"] = 0.7  # above 1 - s_k = 0.6
    path = tmp_path / "controlled.json"
    path.write_text(json.dumps(doc))
    assert run(["simulate", "--scenario", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("t,K,E,s_r,Y,C,I_k,I_r\n0.0,4.0,1.0,0.7,")
    assert err == "warning: s_r left its admissible interval during the run\n"


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [1], "scenario: must be a JSON object"),
    (lambda doc: {**doc, "params": 5}, "params: must be an object"),
    (lambda doc: {**doc, "params": {k: v for k, v in doc["params"].items()
                                    if k != "alpha"}},
     "params.alpha: missing required field"),
], ids=["list", "params-number", "params-without-alpha"])
def test_malformed_document_is_exit_2(edit, message, basic_scenario, capsys):
    doc = edit(json.loads(basic_scenario.read_text()))
    basic_scenario.write_text(json.dumps(doc))
    assert run(["simulate", "--scenario", str(basic_scenario)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text,message", [
    ("[" * 100_000 + "]" * 100_000,
     "maximum recursion depth exceeded while decoding a JSON array"),
    ('{"horizon": ' + "1" * 5000 + "}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["nested-100000-deep", "integer-of-5000-digits"])
def test_document_json_cannot_read_is_exit_2(text, message, tmp_path, capsys):
    # json raises RecursionError and a plain ValueError for these, where
    # JSONDecodeError is what it raises for malformed text
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["simulate", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: scenario: not valid JSON: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_tipping_from_an_output_that_underflows_is_not_a_usage_error(
        tmp_path, capsys):
    # Y(0) = (1e-300)^0.6 (1e-300)^0.6 rounds to 0; taken as ln 0 = -inf,
    # not math.log's "math domain error" (exit 1), it puts the closed-form
    # root outside the bracket, so the ends run
    doc = json.loads((SCENARIO_DIR / "controlled_p047.json").read_text())
    doc["params"].update(alpha=0.6, beta=0.6)
    doc.update(initial={"K": 1e-300, "E": 1e-300}, horizon=1)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code = run(["tipping", "--scenario", str(path), "--p-min", "0.40",
                "--p-max", "0.55"])
    out, err = capsys.readouterr()
    assert code in (0, 3), err
    assert "domain error" not in err
