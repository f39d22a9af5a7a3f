"""One rule for every input that must be finite and positive, and one for p.

Each input is checked once, by the type or function that takes it in.  The
library raises ValidationError naming the input (also a ValueError), and a
bad value in a scenario file or in a CLI flag prints the same line and
exits 2.
"""

import json
import math
from pathlib import Path

import pytest

from capedu.analysis import controlled_equilibrium
from capedu.cli import run
from capedu.control import check_control, find_tipping
from capedu.errors import ValidationError
from capedu.integrator import IntegratorSettings, integrate
from capedu.model import EconState, ModelParams
from capedu.scenario_io import load_scenario, phase_portrait

from conftest import BASELINE

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BASIC = SCENARIO_DIR / "basic_baseline.json"
CONTROLLED = SCENARIO_DIR / "controlled_p047.json"
PARAMS = ModelParams(**BASELINE)
START = EconState(4.0, 1.0)
BAD = [0.0, -2.5, math.nan, math.inf]


def message(field, value):
    return f"{field}: must be finite and positive, got {value}"


def decay(y):
    return [-y[0]]


# input -> (field, a call that passes value to it)
LIBRARY = {
    "IntegratorSettings.rel_tol":
        ("rel_tol", lambda v: IntegratorSettings(rel_tol=v)),
    "IntegratorSettings.abs_tol":
        ("abs_tol", lambda v: IntegratorSettings(abs_tol=v)),
    "ModelParams.delta_k":
        ("delta_k", lambda v: ModelParams(**{**BASELINE, "delta_k": v})),
    "ModelParams.delta_r":
        ("delta_r", lambda v: ModelParams(**{**BASELINE, "delta_r": v})),
    "EconState.K": ("K", lambda v: EconState(v, 1.0)),
    "EconState.E": ("E", lambda v: EconState(4.0, v)),
    "check_control.s_r0": ("s_r0", lambda v: check_control(PARAMS, 0.47, v)),
    "find_tipping.tol": ("tol", lambda v: find_tipping(
        PARAMS, START, 0.1, 200.0, 0.40, 0.55, tol=v)),
    "find_tipping.horizon": ("horizon", lambda v: find_tipping(
        PARAMS, START, 0.1, v, 0.40, 0.55)),
    # find_tipping leaves the check to its first run's check_control
    "find_tipping.s_r0": ("s_r0", lambda v: find_tipping(
        PARAMS, START, v, 200.0, 0.40, 0.55)),
    "phase_portrait.horizon": ("horizon", lambda v: phase_portrait(
        PARAMS, (1, 2), (0.5, 1), (2, 2), horizon=v)),
    # the run length t1 - t0 is the horizon
    "integrate.horizon": ("horizon", lambda v: integrate(
        decay, [1.0], 1.0, 1.0 + v)),
    "integrate.sample_step": ("sample_step", lambda v: integrate(
        decay, [1.0], 0.0, 1.0, sample_step=v)),
}


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("name", list(LIBRARY))
def test_library_names_the_input(name, value):
    field, call = LIBRARY[name]
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert exc.value.field == field
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == message(field, value)


@pytest.mark.parametrize("p", [0.0, -0.1, 0.6, 0.7, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda p: controlled_equilibrium(PARAMS, p),
    lambda p: check_control(PARAMS, p, 0.1),
], ids=["controlled_equilibrium", "check_control"])
def test_target_rule(call, p):
    # 0 < p < 1 - s_k = 0.6 keeps s_r* = 1 - s_k - p positive
    with pytest.raises(ValidationError) as exc:
        call(p)
    assert exc.value.field == "p"
    assert str(exc.value) == f"p: need 0 < p < 1 - s_k, got p={p}"


def cli_error(argv, capsys):
    """The exit code and the stderr of a CLI run that must print nothing."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


TIPPING = ["tipping", "--scenario", str(CONTROLLED), "--p-min", "0.40",
           "--p-max", "0.55"]
PHASE = ["phase", "--scenario", str(BASIC), "--k-range", "1:2",
         "--e-range", "0.5:1", "--grid", "2x2"]

# CLI flag -> (field, argv without the value)
FLAGS = {
    "chaos --horizon": ("horizon", ["chaos", "--horizon"]),
    "chaos --sample-step":
        ("sample_step", ["chaos", "--horizon", "10", "--sample-step"]),
    "chaos --rel-tol": ("rel_tol", ["chaos", "--horizon", "10", "--rel-tol"]),
    "chaos --abs-tol": ("abs_tol", ["chaos", "--horizon", "10", "--abs-tol"]),
    "tipping --horizon": ("horizon", TIPPING + ["--horizon"]),
    "tipping --tol": ("tol", TIPPING + ["--tol"]),
    "tipping --s-r0": ("s_r0", TIPPING + ["--s-r0"]),
    "phase --horizon": ("horizon", PHASE + ["--horizon"]),
}


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("flag", list(FLAGS))
def test_flag_names_the_input(flag, value, capsys):
    field, argv = FLAGS[flag]
    assert cli_error(argv + [str(value)], capsys) == \
        (2, f"error: {message(field, value)}\n")


# scenario field -> (block or None for a top-level key, base scenario, the
# flag that takes the same value, if any)
FILE_FIELDS = {
    "horizon": (None, BASIC, "tipping --horizon"),
    "sample_step": (None, BASIC, "chaos --sample-step"),
    "K": ("initial", BASIC, None),
    "E": ("initial", BASIC, None),
    "delta_k": ("params", BASIC, None),
    "delta_r": ("params", BASIC, None),
    "rel_tol": ("integrator", BASIC, "chaos --rel-tol"),
    "abs_tol": ("integrator", BASIC, "chaos --abs-tol"),
    "s_r0": ("control", CONTROLLED, "tipping --s-r0"),
}


# a scenario file holds finite numbers only: Infinity and NaN are parse
# errors there (test_cli.py::test_non_finite_scenario_number_is_exit_2)
@pytest.mark.parametrize("value", [0.0, -2.5])
@pytest.mark.parametrize("field", list(FILE_FIELDS))
def test_file_and_flag_give_the_same_error(field, value, tmp_path, capsys):
    block, base, flag = FILE_FIELDS[field]
    doc = json.loads(base.read_text())
    (doc if block is None else doc.setdefault(block, {}))[field] = value
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as exc:
        load_scenario(text)
    assert exc.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(text)
    expected = (2, f"error: {message(field, value)}\n")
    assert cli_error(["simulate", "--scenario", str(path)], capsys) == expected
    if flag is not None:
        _, argv = FLAGS[flag]
        assert cli_error(argv + [str(value)], capsys) == expected


@pytest.mark.parametrize("argv", [
    ["tipping", "--scenario", str(CONTROLLED), "--p-min", "0.7",
     "--p-max", "0.55", "--horizon", "-5"],
    TIPPING + ["--horizon", "0", "--tol", "nan"],
    ["phase", "--scenario", str(BASIC), "--k-range", "8:0.5",
     "--e-range", "0.5:1", "--grid", "1x2", "--horizon", "inf"],
], ids=["tipping-empty-bracket", "tipping-bad-tol", "phase-bad-range"])
def test_two_bad_values_report_the_horizon(argv, capsys):
    # the horizon is checked first, so an empty bracket (exit 3) or a bad
    # range does not hide it
    code, err = cli_error(argv, capsys)
    assert code == 2
    assert err.startswith("error: horizon: must be finite and positive")
