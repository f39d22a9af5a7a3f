"""The output path's bytes, pinned by sha256 or, where short, literally.

Each digest was taken from the writer before it worked on whole columns,
each `capedu plot` digest from the renderer before it formatted the
points in numpy, each `capedu equilibrium` digest before the controlled
report was built in one step, each `capedu tipping` stdout before the
search probed its seed pair and its ends in one loop, and each `capedu
chaos` stdout before the running average lost its wrapper; a faster or
simpler writer, renderer, report, search or average must keep every byte.

Two sets were re-pinned since, each for a change of its numbers.  The
trajectory CSV digests follow the Y column computed per sample on Python
floats, as the march computes it: numpy's array power differs from libm's
pow in the last bit on some inputs where it dispatches to AVX-512 loops,
so the old digests held only on such hosts.  The tipping stdout at T = 20,
T = 50 and tol 1e-6 follows the search that runs secant pairs after the
pair around the closed-form root, where it ran the ends and ITP before.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from capedu.cli import run
from capedu.scenario_io import (SweepSpec, load_scenario, phase_portrait,
                                render_svg, run_scenario, run_sweep,
                                write_phase_csv, write_sweep_csv,
                                write_trajectory_csv)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def read_scenario(name):
    return load_scenario((SCENARIO_DIR / name).read_text())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_series():
    """Four random walks of a few hundred points on their own time grids."""
    rng = np.random.default_rng(2024)
    series = []
    for label, n, scale in (("K", 300, 1.0), ("E & x", 250, 0.01),
                            ("Y", 400, 100.0), ("C<0", 350, 3.0)):
        t = np.cumsum(rng.uniform(0.0, 0.5, n))
        v = np.cumsum(rng.normal(0.0, scale, n))
        v[n // 2] = -0.0
        series.append((label, t, v))
    return series


@pytest.mark.parametrize("name,digest", [
    ("basic_baseline.json",
     "a73369daec8d6de8485d7e43353adf4c94b98cd32bafd8f86a30a3853721768f"),
    ("chaotic_plus.json",
     "02318464ae1848273a2dc609b5d17d60a63b9bd7f37436cf69d327ae4407e168"),
])
def test_trajectory_csv_bytes(name, digest):
    assert sha256(write_trajectory_csv(run_scenario(read_scenario(name)))) \
        == digest


def test_svg_bytes():
    svg = render_svg(seeded_series(), title="K & E <seeded>")
    assert svg.count("<polyline") == 4
    assert sha256(svg) == \
        "349c7ff62cdc7350c73e177da08d9142bc90f8940c1be0ff3a5146507419c3ed"


@pytest.mark.parametrize("name,columns,digest", [
    # a regular time grid: half of its x coordinates sit on or next to .2f ties
    ("basic_baseline.json", "K,E,Y,C",
     "c5797290a598502f8cf091bcd7388459fb3bfa57e7ebc0cd13d5942a439c308b"),
    # 4,001 rows of a 10-column chaotic run
    ("chaotic_plus.json", "Y,C",
     "a879bb703de629cb8ba3f72245b2fa69da15432ff8b9033b0616aab0d24ae6b6"),
])
def test_cli_plot_bytes(name, columns, digest, tmp_path):
    csv, svg = tmp_path / "run.csv", tmp_path / "plot.svg"
    assert run(["simulate", "--scenario", str(SCENARIO_DIR / name),
                "--out", str(csv)]) == 0
    assert run(["plot", "--csv", str(csv), "--columns", columns,
                "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


def test_phase_csv_bytes(baseline_params):
    portrait = phase_portrait(baseline_params, (0.5, 8.0), (0.1, 2.0),
                              grid=(3, 3), horizon=300.0)
    assert sha256(write_phase_csv(portrait)) == \
        "1428d0451282846d3ea0c2e24a7e875dd1d9685d422caa118ef5502968206315"


def test_sweep_csv_bytes_with_an_error_row():
    base = replace(read_scenario("basic_baseline.json"), sample_step=1.0)
    rows = run_sweep(SweepSpec(base=base, parameter="delta_r",
                               values=(0.25, -0.1, 0.17), report_time=200.0))
    assert [r.error is None for r in rows] == [True, False, True]
    assert sha256(write_sweep_csv(rows)) == \
        "133c4218063dcaaded9be0d8e377c49f2cb6ce51ba0992248c7a4602476e5656"


EQUILIBRIUM_DIGESTS = [
    ("basic_baseline.json",
     "c86ce735870179ff2fedaf2d9fa8bd878eb5074f5cd1b26ccf0950198bdbc826"),
    ("basic_equal_start.json",
     "c86ce735870179ff2fedaf2d9fa8bd878eb5074f5cd1b26ccf0950198bdbc826"),
    ("basic_invariant_line.json",
     "9195017c99024a64170e3b41098595d6a9a3bd3a1d23932c5a02d88ac015627f"),
    ("chaotic_minus.json",
     "8f05f85aedffe425a61e681e4efb48ca23e5623089262ed84e809dcd216a1e21"),
    ("chaotic_off.json",
     "8f05f85aedffe425a61e681e4efb48ca23e5623089262ed84e809dcd216a1e21"),
    ("chaotic_plus.json",
     "8f05f85aedffe425a61e681e4efb48ca23e5623089262ed84e809dcd216a1e21"),
    ("controlled_p04.json",
     "d88175af9c840f14579616a9a2c9a49dfcf41f85d8e03b4c82e9bbf0852cc386"),
    ("controlled_p047.json",
     "f194b1c03aae1e0b590282695d2d28cbba9bd44f662d068f6a4d52a5e97a8bb2"),
    ("controlled_p055.json",
     "a65f5c7365ecac4107b1eccaf512f1c22af602c6660a71c80761d9f0efcf9722"),
]


def test_every_scenario_has_an_equilibrium_digest():
    assert sorted(name for name, _ in EQUILIBRIUM_DIGESTS) == \
        sorted(path.name for path in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name,digest", EQUILIBRIUM_DIGESTS)
def test_cli_equilibrium_bytes(name, digest, capsys):
    assert run(["equilibrium", "--scenario", str(SCENARIO_DIR / name)]) == 0
    assert sha256(capsys.readouterr().out) == digest


TIPPING_STDOUT = [
    # the pair p_inf -+ tol/2 brackets the root: 2 runs
    (["--tol", "1e-3"],
     "p_star=0.46615\nbracket=0.46565,0.46665\n"
     "growth_at_bracket=0.00269426,-0.00269988\nhorizon=200\n"),
    # the pair misses and a secant pair holds the root: 4 runs
    (["--tol", "1e-3", "--horizon", "20"],
     "p_star=0.464475\nbracket=0.463975,0.464975\n"
     "growth_at_bracket=0.0021706,-0.00222164\nhorizon=20\n"),
    # the pair: 2 runs
    (["--tol", "1e-3", "--horizon", "50"],
     "p_star=0.46615\nbracket=0.46565,0.46665\n"
     "growth_at_bracket=0.00186472,-0.00343288\nhorizon=50\n"),
    (["--tol", "1e-6"],
     "p_star=0.46615\nbracket=0.46615,0.466151\n"
     "growth_at_bracket=2.68822e-06,-2.70591e-06\nhorizon=200\n"),
    # the pair does not fit: the ends and one ITP run
    (["--tol", "0.15"],
     "p_star=0.4375\nbracket=0.4,0.475\n"
     "growth_at_bracket=0.317444,-0.0486438\nhorizon=200\n"),
    # wider than the bracket: the ends only
    (["--tol", "0.3"],
     "p_star=0.475\nbracket=0.4,0.55\n"
     "growth_at_bracket=0.317444,-0.575794\nhorizon=200\n"),
]


@pytest.mark.parametrize("flags,stdout", TIPPING_STDOUT)
def test_cli_tipping_stdout(flags, stdout, capsys):
    assert run(["tipping", "--scenario",
                str(SCENARIO_DIR / "controlled_p047.json"),
                "--p-min", "0.40", "--p-max", "0.55"] + flags) == 0
    assert capsys.readouterr().out == stdout


# each `capedu chaos` stdout before running_average returned a bare array
CHAOS_STDOUT = [
    ([], "A(100)=0.150539\n"),
    (["--sample-step", "1"], "A(100)=0.150771\n"),
    (["--sample-step", "1", "--rel-tol", "1e-5", "--abs-tol", "1e-7"],
     "A(100)=0.150794\n"),
    (["--horizon", "20", "--b", "0.6"], "A(20)=0.179959\n"),
]


@pytest.mark.parametrize("flags,stdout", CHAOS_STDOUT)
def test_cli_chaos_stdout(flags, stdout, capsys):
    assert run(["chaos"] + flags) == 0
    assert capsys.readouterr().out == stdout
