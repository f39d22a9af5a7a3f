"""cli.run on drawn command lines and on drawn scenario documents.

Every run exits 0, 1, 2 or 3 and prints no traceback, and on exit 0 what it
writes parses: a trajectory CSV through read_trajectory_csv, an SVG through
xml.etree, and each other subcommand's lines or table by its own form.

The draws keep every run short: scenarios run to t = 2 at most, command
line horizons are at most 50 (1 for chaos), grids at most 3x3, and a sweep
has at most 5 values.  A start of the chaotic driver such as x0 = -1 (from
t = 21) or b = 50 (from t = 1.2) sends it into a finite-time blow-up that
runs until the step budget ends, 40 to 70 seconds later, with exit 3; the
draws hold no such start within their horizons.
"""

import contextlib
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from capedu.analysis import Stability
from capedu.cli import run
from capedu.scenario_io import read_trajectory_csv

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
HORIZON = 2.0  # the longest run of a drawn scenario document


def short(path: Path) -> dict:
    """The scenario at path, run to HORIZON at most."""
    doc = json.loads(path.read_text())
    doc["horizon"] = min(doc["horizon"], HORIZON)
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the inputs a command line may name: the scenarios run to
    HORIZON, files that are not scenarios or CSVs, and a missing one."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    paths = {}
    for path in SCENARIOS:
        paths[path.stem] = root / path.name
        paths[path.stem].write_text(json.dumps(short(path)))
    for name, text in {"not_json.json": "{", "good.csv": None,
                       "bad_cell.csv": "t,Y\n0,1\n1,abc\n",
                       "ragged.csv": "t,Y\n0,1\n1,2,3\n",
                       "header_only.csv": "t,Y\n"}.items():
        paths[name] = root / name
        if text is None:
            code, text, _ = cli(["simulate", "--scenario",
                                 str(paths["basic_baseline"])])
            assert code == 0
        paths[name].write_text(text)
    paths["missing"] = root / "missing.json"
    paths["out"] = root / "out.txt"
    paths["out in no directory"] = root / "no" / "out.txt"
    return paths


def cli(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of cli.run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def lines(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The key=value lines of text, which must be keys in order."""
    pairs = dict(line.split("=", 1) for line in text.splitlines())
    assert tuple(pairs) == keys
    return pairs


def table(text: str, header: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    assert ",".join(rows[0]) == header
    assert len({len(row) for row in rows}) == 1
    return rows[1:]


def parse_equilibrium(text: str):
    pairs = lines(text, ("K0", "E0", "Y0", "eigenvalues", "class"))
    for key in ("K0", "E0", "Y0", "eigenvalues"):
        floats(pairs[key])
    Stability(pairs["class"])


def parse_sweep(text: str):
    for value, Y, C, error in table(text, "value,Y,C,error"):
        float(value)
        assert (error == "") == (Y != "") == (C != "")
        if Y:
            floats(f"{Y},{C}")


def parse_phase(text: str):
    for record, index, *numbers in table(text, "record,index,t,K,E,dK,dE"):
        assert record in ("field", "orbit")
        int(index)
        floats(",".join(v or "0" for v in numbers))


# what exit 0 writes, checked by subcommand
PARSERS = {
    "simulate": lambda text: read_trajectory_csv(text),
    "equilibrium": parse_equilibrium,
    "sweep": parse_sweep,
    "tipping": lambda text: [floats(v) for v in lines(text, (
        "p_star", "bracket", "growth_at_bracket", "horizon")).values()],
    "chaos": lambda text: float(text.partition("=")[2]),
    "phase": parse_phase,
    "plot": ET.fromstring,
}

NUMBERS = ["0", "-1", "0.5", "1", "2", "1e-300", "1e308", "-1e308", "nan",
           "inf", "-inf", "abc", ""]
HORIZONS = ["-1", "0", "1e-300", "1e308", "nan", "inf", "abc", ""]


def options(files, command: str) -> dict:
    """Each flag of command: its valid tokens, its foreign ones, and whether
    it is required.  Runs are short: horizons are at most 50, and chaos
    runs to t = 1 at most from starts of 0 and 0.5 (with loose tolerances,
    as --abs-tol 0.5, or from y0 = b = 0.5, the driver blows up before
    t = 50); chaos always gets its horizon, which is 100 by default."""
    scenario = ([str(files[p.stem]) for p in SCENARIOS],
                [str(files["not_json.json"]), str(files["missing"])], True)
    driver = (["0", "0.5"], ["1e308", "-1e308", "nan", "inf", "abc", ""],
              False)
    return {
        "simulate": {"--scenario": scenario},
        "equilibrium": {"--scenario": scenario},
        "sweep": {
            "--scenario": scenario,
            "--param": (["delta_r", "s_r", "K", "E", "p", "s_r0", "rel_tol",
                         "c", "x0", "b"], ["horizon", "abc", ""], True),
            # up to 5 values, joined by commas
            "--values": ([",".join(["0.1", "0.2", "0.5", "1", "2"][:n])
                          for n in range(1, 6)],
                         [",".join(NUMBERS[i:i + n]) for i in range(0, 13, 3)
                          for n in (1, 5)], True),
            "--at": (["0", "0.5", "1", "2"],
                     ["0.3", "-1", "nan", "abc", "1e308"], True)},
        "tipping": {"--scenario": scenario,
                    "--p-min": (["0.4", "0.45"], NUMBERS, True),
                    "--p-max": (["0.55", "0.58"], NUMBERS, True),
                    "--tol": (["1e-3", "1e-6"], NUMBERS, False),
                    "--horizon": (["5", "20", "50"], HORIZONS, False),
                    "--s-r0": (["0.1", "0.2"], NUMBERS, False)},
        "chaos": {"--horizon": (["0.5", "1"], HORIZONS, True),
                  "--sample-step": (["0.01", "0.1", "0.5"], NUMBERS, False),
                  "--rel-tol": (["1e-8", "1e-10"], NUMBERS, False),
                  "--abs-tol": (["1e-10", "1e-12"], NUMBERS, False),
                  "--x0": driver, "--y0": driver, "--z0": driver,
                  "--b": driver},
        "phase": {"--scenario": scenario,
                  "--k-range": (["1:2", "0.5:8"], [
                      "2:1", "0:1", "1:inf", "nan:1", "1e-300:1", "a:b", "1",
                      "1:2:3", "-1:2"], True),
                  "--e-range": (["0.5:1", "0.1:2"],
                                ["1:1", "-inf:1", "x"], True),
                  "--grid": (["2x2", "3x3", "2x3"], [
                      "1x2", "0x0", "ax2", "2", "2.5x2", "-2x2", "2x2x2", ""],
                      False),
                  "--horizon": (["5", "50"], HORIZONS, False)},
        "plot": {"--csv": ([str(files["good.csv"])], [
                     str(files[name]) for name in (
                         "bad_cell.csv", "ragged.csv", "header_only.csv",
                         "missing", "basic_baseline")], True),
                 "--columns": (["Y", "Y,C", "K,E"], ["t", "nope", ""], False),
                 "--title": (["", "a & b <c>"], ["x" * 3], False)},
    }[command]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_command_line_exits_with_a_documented_code(files, data):
    command = data.draw(st.sampled_from(sorted(PARSERS)))
    argv = [command]
    for flag, (valid, foreign, required) in options(files, command).items():
        # a required flag is left out 1 time in 20, any other 1 in 2; a
        # token is foreign 1 time in 5
        if data.draw(st.integers(0, 19)) >= (1 if required else 10):
            tokens = valid if data.draw(st.integers(0, 4)) else foreign
            argv.append(f"{flag}={data.draw(st.sampled_from(tokens))}")
    out = data.draw(st.sampled_from(
        [None] * 3 + ["out", "out in no directory"]))
    if out is not None:
        argv.append(f"--out={files[out]}")
    code, stdout, stderr = cli(argv)
    event(f"{command} exits {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr
    if code == 0:
        PARSERS[command](stdout if out is None else files[out].read_text())


# values a key of a scenario document may be given: no number of size
# above 2 that a double holds, so no chaotic start blows up before t = 2
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([0, -1, 0.5, 2, 1e308, -1e308, 10 ** 400, math.inf,
                     math.nan]),
    st.lists(st.floats(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@st.composite
def documents(draw) -> dict:
    """A checked-in scenario run to HORIZON, with one key, at the top or in
    a block, dropped or given a drawn value: half of them a number in
    [0.05, 0.95], which most keys take."""
    doc = short(draw(st.sampled_from(SCENARIOS)))
    where = draw(st.sampled_from(
        [(doc, key) for key in doc] + [(block, key) for block in doc.values()
                                       if isinstance(block, dict)
                                       for key in block]))
    parent, key = where
    if not draw(st.integers(0, 3)):  # 1 time in 4
        del parent[key]
    elif draw(st.booleans()):  # a number valid for most keys
        parent[key] = draw(st.floats(0.05, 0.95))
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=80, deadline=None)
@given(doc=documents())
def test_drawn_scenario_document_exits_with_a_documented_code(files, doc):
    path = files["out"].with_name("drawn.json")
    path.write_text(json.dumps(doc))
    for command in ("simulate", "equilibrium"):
        code, stdout, stderr = cli([command, "--scenario", str(path)])
        event(f"{command} exits {code}")
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr
        if code == 0:
            PARSERS[command](stdout)
