import json
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capedu.errors import EmptySeries, ParseError, ValidationError
from capedu.integrator import CHAOS_SETTINGS, IntegratorSettings
from capedu.model import ModelParams
from capedu.scenario_io import (
    SweepSpec,
    dump_scenario,
    load_scenario,
    phase_portrait,
    read_trajectory_csv,
    render_svg,
    run_scenario,
    run_sweep,
    write_phase_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from capedu.trajectory import Trajectory

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def read_scenario(name):
    return load_scenario((SCENARIO_DIR / name).read_text())


def minimal_doc(**overrides):
    doc = {
        "kind": "basic",
        "params": {"s_k": 0.4, "s_r": 0.1, "delta_k": 0.15, "delta_r": 0.25,
                   "alpha": 0.2, "beta": 0.35},
        "initial": {"K": 4, "E": 1},
        "horizon": 200,
        "sample_step": 0.5,
    }
    doc.update(overrides)
    return doc


def number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def maybe(draw, block, key, strategy):
    """Set block[key] from strategy, or leave the optional key out."""
    if draw(st.booleans()):
        block[key] = draw(strategy)


@st.composite
def scenario_docs(draw):
    """Valid scenario documents of every kind, optional keys in or out."""
    kind = draw(st.sampled_from(["basic", "controlled", "chaotic"]))
    positive = st.one_of(st.integers(1, 1000), number(1e-6, 1e6))
    s_k = draw(number(0.0, 0.9))
    s_r = draw(number(0.01, 0.99 - s_k))
    params = {"s_k": s_k, "s_r": s_r, "delta_k": draw(number(1e-3, 2.0)),
              "delta_r": draw(number(1e-3, 2.0)),
              "alpha": draw(number(0.01, 0.99)),
              "beta": draw(number(0.01, 0.99))}
    maybe(draw, params, "s_r_floor", number(0.0, s_r))
    doc = {"kind": kind, "params": params,
           "initial": {"K": draw(positive), "E": draw(positive)},
           "horizon": draw(positive), "sample_step": draw(positive)}
    if draw(st.booleans()):
        doc["integrator"] = {}
        for key in ("rel_tol", "abs_tol"):
            maybe(draw, doc["integrator"], key, number(1e-14, 1e-2))
    if kind == "controlled":
        doc["control"] = {"p": draw(number(0.01, 0.99 - s_k)),
                          "s_r0": draw(number(1e-3, 1.0))}
    if kind == "chaotic":
        doc["chaos"] = {"c": draw(number(-1.0, 1.0))}
        for key in ("x0", "y0", "z0", "b"):
            maybe(draw, doc["chaos"], key, number(-2.0, 2.0))
    return doc


# the trajectory CSV header of each kind, as the README documents it
CSV_COLUMNS = {
    "basic": ("t", "K", "E", "Y", "C", "I_k", "I_r"),
    "controlled": ("t", "K", "E", "s_r", "Y", "C", "I_k", "I_r"),
    "chaotic": ("t", "K", "E", "x", "y", "z", "Y", "C", "I_k", "I_r"),
}


@st.composite
def short_stable_runs(draw):
    """Scenarios of every kind with alpha + beta < 1 over a short horizon.

    The ranges keep K and E positive: the controlled s_r moves toward
    1 - s_k - p > 0, and |c| * max|x| stays below s_k, as the driver's x
    keeps within [-0.33, 0.7] from its default start.
    """
    kind = draw(st.sampled_from(sorted(CSV_COLUMNS)))
    alpha = draw(number(0.05, 0.6))
    s_k = draw(number(0.05, 0.8))
    params = {"s_k": s_k, "s_r": draw(number(0.01, 0.95 - s_k)),
              "delta_k": draw(number(0.01, 2.0)),
              "delta_r": draw(number(0.01, 2.0)),
              "alpha": alpha, "beta": draw(number(0.05, 0.95 - alpha))}
    doc = minimal_doc(kind=kind, params=params,
                      initial={"K": draw(number(0.5, 10.0)),
                               "E": draw(number(0.5, 10.0))},
                      horizon=draw(number(0.5, 3.0)), sample_step=0.25)
    if kind == "controlled":
        doc["control"] = {"p": draw(number(0.01, 0.99 - s_k)),
                          "s_r0": draw(number(0.01, 1.0))}
    if kind == "chaotic":
        doc["chaos"] = {"c": draw(number(-0.9 * s_k, 0.9 * s_k))}
    return load_scenario(json.dumps(doc))


# dump_scenario text of three checked-in scenarios, one of each kind
DUMPED = {
    "basic_baseline.json": """\
{
  "kind": "basic",
  "params": {
    "s_k": 0.4,
    "s_r": 0.1,
    "delta_k": 0.15,
    "delta_r": 0.25,
    "alpha": 0.2,
    "beta": 0.35,
    "s_r_floor": 0.0
  },
  "initial": {
    "K": 4.0,
    "E": 1.0
  },
  "horizon": 200.0,
  "sample_step": 0.5,
  "integrator": {
    "rel_tol": 1e-08,
    "abs_tol": 1e-10
  }
}
""",
    "controlled_p047.json": """\
{
  "kind": "controlled",
  "params": {
    "s_k": 0.4,
    "s_r": 0.1,
    "delta_k": 0.15,
    "delta_r": 0.25,
    "alpha": 0.2,
    "beta": 0.35,
    "s_r_floor": 0.0
  },
  "initial": {
    "K": 4.0,
    "E": 1.0
  },
  "horizon": 200.0,
  "sample_step": 0.5,
  "integrator": {
    "rel_tol": 1e-08,
    "abs_tol": 1e-10
  },
  "control": {
    "p": 0.47,
    "s_r0": 0.1
  }
}
""",
    "chaotic_plus.json": """\
{
  "kind": "chaotic",
  "params": {
    "s_k": 0.4,
    "s_r": 0.1,
    "delta_k": 0.15,
    "delta_r": 0.15,
    "alpha": 0.2,
    "beta": 0.35,
    "s_r_floor": 0.0
  },
  "initial": {
    "K": 4.0,
    "E": 1.0
  },
  "horizon": 200.0,
  "sample_step": 0.05,
  "integrator": {
    "rel_tol": 1e-10,
    "abs_tol": 1e-12
  },
  "chaos": {
    "c": 0.5,
    "x0": 0.5,
    "y0": 0.0,
    "z0": 0.0,
    "b": 0.55
  }
}
""",
}


class TestLoadScenario:
    def test_baseline_document(self):
        s = read_scenario("basic_baseline.json")
        assert s.kind == "basic"
        assert s.params == ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15,
                                       delta_r=0.25, alpha=0.2, beta=0.35)
        assert (s.initial.K, s.initial.E) == (4.0, 1.0)
        assert s.horizon == 200.0

    def test_missing_horizon(self):
        doc = minimal_doc()
        del doc["horizon"]
        with pytest.raises(ParseError, match="horizon"):
            load_scenario(json.dumps(doc))

    def test_overcommitted_investment(self):
        doc = minimal_doc()
        doc["params"]["s_k"] = 0.7
        doc["params"]["s_r"] = 0.4
        with pytest.raises(ValidationError):
            load_scenario(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ParseError):
            load_scenario("kind: basic")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            load_scenario(json.dumps(minimal_doc(extra=1)))

    def test_kind_block_pairing(self):
        with pytest.raises(ParseError, match="control"):
            load_scenario(json.dumps(minimal_doc(kind="controlled")))
        with pytest.raises(ParseError, match="chaos"):
            load_scenario(json.dumps(minimal_doc(kind="chaotic")))
        with pytest.raises(ParseError):
            load_scenario(json.dumps(
                minimal_doc(control={"p": 0.4, "s_r0": 0.1})))

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            load_scenario(json.dumps(minimal_doc(kind="quarterly")))

    def test_non_numeric_field(self):
        doc = minimal_doc()
        doc["initial"]["K"] = "four"
        with pytest.raises(ParseError, match="initial.K"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN",
                                         "1" + "0" * 400])
    def test_non_finite_number_rejected(self, literal):
        # json accepts these; none of them is a usable scenario number
        text = json.dumps(minimal_doc(horizon=0)).replace(
            '"horizon": 0', f'"horizon": {literal}')
        with pytest.raises(ParseError, match="horizon must be a finite"):
            load_scenario(text)

    def test_superlinear_accepted_with_warning(self):
        doc = minimal_doc()
        doc["params"]["alpha"] = 0.6
        doc["params"]["beta"] = 0.6
        s = load_scenario(json.dumps(doc))
        assert s.warnings

    def test_chaos_defaults(self):
        doc = minimal_doc(kind="chaotic", chaos={"c": 0.5})
        doc["params"]["delta_r"] = 0.15
        s = load_scenario(json.dumps(doc))
        assert (s.chaos.x0, s.chaos.y0, s.chaos.z0) == (0.5, 0.0, 0.0)
        assert s.chaos.b == 0.55

    def test_chaotic_default_settings(self):
        doc = json.loads((SCENARIO_DIR / "chaotic_plus.json").read_text())
        doc["horizon"] = 2
        explicit = load_scenario(json.dumps(doc))
        assert explicit.integrator == CHAOS_SETTINGS
        del doc["integrator"]
        implicit = load_scenario(json.dumps(doc))
        assert implicit.integrator == CHAOS_SETTINGS
        assert write_trajectory_csv(run_scenario(implicit)) == \
            write_trajectory_csv(run_scenario(explicit))
        # the other kinds keep the IntegratorSettings defaults
        assert read_scenario("basic_baseline.json").integrator == \
            IntegratorSettings()

    @pytest.mark.parametrize("kind,block,key,value,field", [
        ("controlled", "control", "p", 0.7, "p"),      # above 1 - s_k
        ("controlled", "control", "p", 0.0, "p"),
        ("controlled", "control", "s_r0", 0.0, "s_r0"),
        ("basic", "initial", "K", -1.0, "K"),
        ("basic", "initial", "E", 0.0, "E"),
        ("basic", "integrator", "rel_tol", 0.0, "rel_tol"),
    ])
    def test_range_checks_name_the_field(self, kind, block, key, value, field):
        doc = minimal_doc(kind=kind, control={"p": 0.47, "s_r0": 0.1},
                          integrator={})
        if kind != "controlled":
            del doc["control"]
        doc[block][key] = value
        with pytest.raises(ValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert exc.value.field == field

    def test_round_trip_identity(self):
        for name in ("basic_baseline.json", "controlled_p047.json",
                     "chaotic_plus.json"):
            s = read_scenario(name)
            assert load_scenario(dump_scenario(s)) == s

    @pytest.mark.parametrize("name", sorted(DUMPED))
    def test_dump_text_is_pinned(self, name):
        # key order and number spelling are part of the format
        assert dump_scenario(read_scenario(name)) == DUMPED[name]

    @settings(max_examples=200, deadline=None)
    @given(doc=scenario_docs(), data=st.data())
    def test_round_trip_over_random_documents(self, doc, data):
        s = load_scenario(json.dumps(doc))
        text = dump_scenario(s)
        assert load_scenario(text) == s
        dumped = json.loads(text)
        for name, block in doc.items():
            if isinstance(block, dict):     # given keys keep their values
                assert all(dumped[name][k] == v for k, v in block.items())
        # an unknown key in any block is rejected
        name = data.draw(st.sampled_from(
            [n for n, b in doc.items() if isinstance(b, dict)]))
        doc[name]["unknown_key"] = 1.0
        with pytest.raises(ParseError, match=f"unknown key.*in {name}"):
            load_scenario(json.dumps(doc))


class TestRunScenario:
    def test_baseline_output_level(self):
        traj = run_scenario(read_scenario("basic_baseline.json"))
        assert traj.at(200.0)["Y"] == pytest.approx(1.43, abs=0.01)

    def test_at_rejects_a_time_off_the_sample_grid(self):
        traj = run_scenario(replace(read_scenario("basic_baseline.json"),
                                    horizon=1.0, sample_step=0.1))
        assert traj.times[3] != 0.3  # 0.1 * 3 rounds to 0.30000000000000004
        assert traj.at(0.3)["Y"] == traj["Y"][3]
        for off_grid in (0.35, 0.3 + 1e-6, -0.1, 1.1, float("nan")):
            with pytest.raises(ValidationError) as exc:
                traj.at(off_grid)
            assert exc.value.field == "t"

    def test_equal_start_same_equilibrium_different_path(self):
        a = run_scenario(read_scenario("basic_baseline.json"))
        b = run_scenario(read_scenario("basic_equal_start.json"))
        assert b.at(200.0)["Y"] == pytest.approx(1.43, abs=0.01)
        assert abs(a.at(5.0)["Y"] - b.at(5.0)["Y"]) > 0.1  # transients differ

    def test_controlled_near_tipping(self):
        traj = run_scenario(read_scenario("controlled_p047.json"))
        assert np.max(np.abs(traj["Y"] - 1.6245) / 1.6245) < 0.02

    def test_conservation_per_row(self):
        traj = run_scenario(read_scenario("basic_baseline.json"))
        total = traj["C"] + traj["I_k"] + traj["I_r"]
        assert np.max(np.abs(total - traj["Y"]) / traj["Y"]) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(scenario=short_stable_runs())
    def test_conservation_and_columns_for_every_kind(self, scenario):
        traj = run_scenario(scenario)
        assert ("t",) + traj.columns == CSV_COLUMNS[scenario.kind]
        flows = traj["C"], traj["I_k"], traj["I_r"]
        scale = sum(np.abs(f) for f in flows)
        assert np.all(np.abs(sum(flows) - traj["Y"]) <= 1e-12 * scale)


class TestSweep:
    def test_education_decay_table(self):
        base = replace(read_scenario("basic_baseline.json"), sample_step=1.0)
        spec = SweepSpec(base=base, parameter="delta_r",
                         values=(0.25, 0.23, 0.21, 0.19, 0.17, 0.15),
                         report_time=200.0)
        rows = run_sweep(spec)
        expected = (1.4271, 1.4810, 1.5421, 1.6122, 1.6939, 1.7908)
        for row, want in zip(rows, expected):
            assert row.error is None
            assert row.Y == pytest.approx(want, abs=1e-3)

    def test_singleton_matches_single_run(self):
        base = read_scenario("basic_baseline.json")
        spec = SweepSpec(base=base, parameter="s_r", values=(0.1,),
                         report_time=200.0)
        row = run_sweep(spec)[0]
        ref = run_scenario(base).at(200.0)
        assert row.Y == ref["Y"] and row.C == ref["C"]

    def test_endpoint_only_row_matches_single_run(self):
        # crit 10 where the steps are set by error control alone: with one
        # sample interval over T = 200 no step lands before the horizon
        base = replace(read_scenario("basic_baseline.json"), sample_step=200.0)
        spec = SweepSpec(base=base, parameter="delta_r", values=(0.25, 0.15),
                         report_time=200.0)
        for row, value in zip(run_sweep(spec), spec.values):
            single = run_scenario(replace(
                base, params=replace(base.params, delta_r=value))).at(200.0)
            assert row.Y == single["Y"] and row.C == single["C"]

    def test_growth_increases_with_education_investment(self):
        base = read_scenario("basic_baseline.json")
        spec = SweepSpec(base=base, parameter="s_r",
                         values=(0.05, 0.1, 0.15), report_time=200.0)
        ys = [r.Y for r in run_sweep(spec)]
        assert ys[0] < ys[1] < ys[2]

    def test_row_errors_do_not_stop_sweep(self):
        base = read_scenario("basic_baseline.json")
        spec = SweepSpec(base=base, parameter="delta_r",
                         values=(-0.1, 0.25), report_time=200.0)
        rows = run_sweep(spec)
        assert rows[0].error is not None and rows[0].Y is None
        assert rows[1].error is None
        assert rows[1].Y == pytest.approx(1.4271, abs=1e-3)

    def test_spec_validation(self):
        base = read_scenario("basic_baseline.json")
        with pytest.raises(ValidationError):
            SweepSpec(base=base, parameter="gamma", values=(1.0,),
                      report_time=200.0)
        with pytest.raises(ValidationError):
            SweepSpec(base=base, parameter="p", values=(0.4,),
                      report_time=200.0)
        with pytest.raises(ValidationError):
            SweepSpec(base=base, parameter="s_r", values=(),
                      report_time=200.0)

    def test_report_time_must_be_on_sample_grid(self):
        base = replace(read_scenario("basic_baseline.json"), horizon=10.0,
                       sample_step=0.5)
        for off_grid in (3.3, -0.5, 10.5):
            with pytest.raises(ValidationError) as exc:
                SweepSpec(base=base, parameter="s_r", values=(0.1,),
                          report_time=off_grid)
            assert exc.value.field == "report_time"
        row = run_sweep(SweepSpec(base=base, parameter="s_r", values=(0.1,),
                                  report_time=3.5))[0]
        ref = run_scenario(base)
        assert row.Y == ref["Y"][7] and ref.times[7] == 3.5
        # a horizon off the step multiples is itself a sample time
        base = replace(base, horizon=10.2)
        SweepSpec(base=base, parameter="s_r", values=(0.1,), report_time=10.2)


class TestCsv:
    def test_basic_header_and_rows(self):
        s = read_scenario("basic_baseline.json")
        traj = run_scenario(replace(s, horizon=0.5, sample_step=0.5))
        text = write_trajectory_csv(traj)
        lines = text.split("\n")
        assert lines[0] == "t,K,E,Y,C,I_k,I_r"
        assert len(lines) == 4 and lines[3] == ""  # header + 2 rows + final \n

    def test_controlled_and_chaotic_headers(self):
        ctrl = run_scenario(replace(read_scenario("controlled_p047.json"),
                                    horizon=1.0, sample_step=0.5))
        assert write_trajectory_csv(ctrl).split("\n")[0] == \
            "t,K,E,s_r,Y,C,I_k,I_r"
        cha = run_scenario(replace(read_scenario("chaotic_plus.json"),
                                   horizon=1.0, sample_step=0.5))
        assert write_trajectory_csv(cha).split("\n")[0] == \
            "t,K,E,x,y,z,Y,C,I_k,I_r"

    def test_rows_reparse_exactly(self):
        s = replace(read_scenario("basic_baseline.json"), horizon=10.0)
        traj = run_scenario(s)
        lines = write_trajectory_csv(traj).strip().split("\n")
        for i, line in enumerate(lines[1:]):
            values = [float(v) for v in line.split(",")]
            assert values[0] == traj.times[i]
            for v, col in zip(values[1:], traj.columns):
                assert v == traj.data[col][i]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_through_reader(self, data):
        # any double, including infinities, subnormals and -0.0
        columns = data.draw(st.sampled_from(sorted(CSV_COLUMNS.values())))[1:]
        n = data.draw(st.integers(1, 20))
        doubles = st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)

        def series():
            return np.array(data.draw(doubles), dtype=float)

        traj = Trajectory(columns=columns, times=series(),
                          data={name: series() for name in columns})
        header, table = read_trajectory_csv(write_trajectory_csv(traj))
        assert header == ("t",) + traj.columns
        expected = np.column_stack(
            [traj.times] + [traj.data[name] for name in columns])
        assert np.array_equal(table, expected)
        assert np.array_equal(np.signbit(table), np.signbit(expected))

    def test_sweep_csv(self):
        base = read_scenario("basic_baseline.json")
        spec = SweepSpec(base=base, parameter="delta_r",
                         values=(-0.1, 0.25), report_time=200.0)
        text = write_sweep_csv(run_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0] == "value,Y,C,error"
        assert lines[1].startswith("-0.1,,,")  # error row keeps columns empty
        assert lines[2].endswith(",")          # empty error column on success


class TestRenderSvg:
    def test_three_curve_figure(self):
        t = np.linspace(0.0, 200.0, 201)
        series = [(f"p={p}", t, np.full_like(t, y))
                  for p, y in ((0.4, 1.94), (0.47, 1.62), (0.55, 1.05))]
        svg = render_svg(series, title="output vs consumption target")
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3
        assert "p=0.47" in svg

    def test_constant_series_is_horizontal(self):
        t = np.array([0.0, 1.0, 2.0])
        svg = render_svg([("flat", t, np.array([1.0, 1.0, 1.0]))])
        line = [ln for ln in svg.split("\n") if "polyline" in ln][0]
        ys = {pt.split(",")[1] for pt in line.split('points="')[1]
              .rstrip('"/>').split()}
        assert len(ys) == 1

    def test_deterministic(self):
        t = np.linspace(0.0, 1.0, 11)
        args = [("a", t, np.sin(t))]
        assert render_svg(args) == render_svg(args)

    def test_text_is_escaped(self):
        t = np.array([0.0, 1.0])
        svg = render_svg([("K<E & Y", t, t)], title="K & E <1>")
        texts = [el.text for el in ET.fromstring(svg).iter()
                 if el.tag.endswith("text")]
        assert "K & E <1>" in texts and "K<E & Y" in texts

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            render_svg([])
        with pytest.raises(EmptySeries):
            render_svg([("x", np.array([]), np.array([]))])


class TestPhasePortrait:
    def test_all_orbits_reach_equilibrium(self, baseline_params):
        portrait = phase_portrait(baseline_params, (0.5, 8.0), (0.1, 2.0),
                                  grid=(3, 3), horizon=300.0)
        K0, E0 = portrait.equilibrium
        assert (K0, E0) == pytest.approx((3.8055332, 0.5708300), abs=1e-6)
        for traj in portrait.trajectories:
            end = traj.states[-1]
            assert np.hypot(end[0] - K0, end[1] - E0) < 1e-3

    def test_minimal_grid_counts(self, baseline_params):
        portrait = phase_portrait(baseline_params, (1.0, 2.0), (0.5, 1.0),
                                  grid=(2, 2), horizon=5.0)
        assert portrait.field_samples.shape == (4, 4)
        assert len(portrait.trajectories) == 4

    def test_superlinear_has_no_equilibrium_field(self):
        p = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                        alpha=0.6, beta=0.6)
        portrait = phase_portrait(p, (1.0, 2.0), (0.5, 1.0), grid=(2, 2),
                                  horizon=5.0)
        assert portrait.equilibrium is None

    def test_bad_ranges(self, baseline_params):
        with pytest.raises(ValidationError) as exc:
            phase_portrait(baseline_params, (-1.0, 2.0), (0.5, 1.0))
        assert exc.value.field == "k_range"
        with pytest.raises(ValidationError) as exc:
            phase_portrait(baseline_params, (1.0, 2.0), (1.0, 0.5))
        assert exc.value.field == "e_range"

    def test_grid_below_2x2_names_the_field(self, baseline_params):
        with pytest.raises(ValidationError) as exc:
            phase_portrait(baseline_params, (1.0, 2.0), (0.5, 1.0),
                           grid=(2, 1))
        assert exc.value.field == "grid"

    def test_phase_csv_shape(self, baseline_params):
        portrait = phase_portrait(baseline_params, (1.0, 2.0), (0.5, 1.0),
                                  grid=(2, 2), horizon=2.0, sample_step=1.0)
        lines = write_phase_csv(portrait).strip().split("\n")
        assert lines[0] == "record,index,t,K,E,dK,dE"
        assert sum(ln.startswith("field,") for ln in lines) == 4
        assert sum(ln.startswith("orbit,") for ln in lines) == 4 * 3
