import json
import math
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capedu import scenario_io
from capedu.errors import ValidationError
from capedu.integrator import CHAOS_SETTINGS, IntegratorSettings, RawTrajectory
from capedu.model import ModelParams
from capedu.scenario_io import (
    _FIXED2_MIN_POINTS,
    _KIND_BLOCKS,
    _OWNER,
    _SHARED_BLOCKS,
    BLOCKS,
    ChaosSpec,
    ControlSpec,
    Scenario,
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


# the keys of a scenario document and of its blocks, and JSON values built
# on them, so that a drawn document gets past the unknown-key checks
DOC_KEYS = sorted({f.name for f in fields(Scenario)} | set(_OWNER))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(sorted(BLOCKS)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(DOC_KEYS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=20)


@st.composite
def edited_docs(draw):
    """A valid document with one key of it or of one of its blocks set to
    any JSON value, or left out."""
    doc = draw(scenario_docs())
    block = draw(st.sampled_from(
        [doc] + [b for b in doc.values() if isinstance(b, dict)]))
    key = draw(st.sampled_from(DOC_KEYS))
    if draw(st.booleans()):
        block[key] = draw(json_values)
    else:
        block.pop(key, None)
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

# short runs of each kind, to sweep every field of their blocks
SWEEP_BASES = {
    "basic": minimal_doc(horizon=2, sample_step=0.5),
    "controlled": minimal_doc(kind="controlled", horizon=2, sample_step=0.5,
                              control={"p": 0.47, "s_r0": 0.1}),
    "chaotic": minimal_doc(kind="chaotic", horizon=2, sample_step=0.5,
                           chaos={"c": 0.5}),
}

# a value of each block field that its class, or Scenario for control,
# rejects, and the field the error names: s_r_floor above s_r names s_r
REJECTED = {
    "s_k": (1.5, "s_k"), "s_r": (0.0, "s_r"), "delta_k": (0.0, "delta_k"),
    "delta_r": (-0.1, "delta_r"), "alpha": (1.0, "alpha"),
    "beta": (0.0, "beta"), "s_r_floor": (0.5, "s_r"), "K": (0.0, "K"),
    "E": (-1.0, "E"), "rel_tol": (0.0, "rel_tol"),
    "abs_tol": (math.nan, "abs_tol"), "p": (0.6, "p"), "s_r0": (0.0, "s_r0"),
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
        with pytest.raises(ValidationError,
                           match="^horizon: missing required field$") as info:
            load_scenario(json.dumps(doc))
        assert info.value.field == "horizon"

    def test_overcommitted_investment(self):
        doc = minimal_doc()
        doc["params"]["s_k"] = 0.7
        doc["params"]["s_r"] = 0.4
        with pytest.raises(ValidationError):
            load_scenario(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ValidationError,
                           match="^scenario: not valid JSON: ") as info:
            load_scenario("kind: basic")
        assert info.value.field == "scenario"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^scenario: unknown key\(s\) \['extra'\]$") \
                as info:
            load_scenario(json.dumps(minimal_doc(extra=1)))
        assert info.value.field == "scenario"

    def test_kind_block_pairing(self):
        for doc, field, message in (
                (minimal_doc(kind="controlled"), "control",
                 "block required for kind=controlled"),
                (minimal_doc(kind="chaotic"), "chaos",
                 "block required for kind=chaotic"),
                (minimal_doc(control={"p": 0.4, "s_r0": 0.1}), "control",
                 "block not allowed for kind=basic")):
            with pytest.raises(ValidationError) as info:
                load_scenario(json.dumps(doc))
            assert info.value.field == field
            assert str(info.value) == f"{field}: {message}"

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            load_scenario(json.dumps(minimal_doc(kind="quarterly")))

    def test_non_numeric_field(self):
        doc = minimal_doc()
        doc["initial"]["K"] = "four"
        with pytest.raises(ValidationError) as info:
            load_scenario(json.dumps(doc))
        assert str(info.value) == "initial.K: must be a number, got 'four'"
        assert info.value.field == "initial.K"

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN",
                                         "1" + "0" * 400])
    def test_non_finite_number_rejected(self, literal):
        # json accepts these; none of them is a usable scenario number
        text = json.dumps(minimal_doc(horizon=0)).replace(
            '"horizon": 0', f'"horizon": {literal}')
        with pytest.raises(ValidationError,
                           match="^horizon: must be finite, got") as info:
            load_scenario(text)
        assert info.value.field == "horizon"

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

    @pytest.mark.parametrize("kind,block,expected", [
        ("chaotic", {}, CHAOS_SETTINGS),
        ("chaotic", {"rel_tol": 1e-9}, IntegratorSettings(1e-9, 1e-12)),
        ("chaotic", {"abs_tol": 1e-11}, IntegratorSettings(1e-10, 1e-11)),
        ("basic", {}, IntegratorSettings()),
        ("basic", {"rel_tol": 1e-9}, IntegratorSettings(1e-9, 1e-10)),
    ])
    def test_partial_integrator_block_defaults_by_kind(self, kind, block,
                                                       expected):
        doc = minimal_doc(kind=kind, integrator=block)
        if kind == "chaotic":
            doc["chaos"] = {"c": 0.5}
        s = load_scenario(json.dumps(doc))
        assert s.integrator == expected
        assert load_scenario(dump_scenario(s)) == s

    @pytest.mark.parametrize("kind,block,key,value,field", [
        ("controlled", "control", "p", 0.7, "p"),      # above 1 - s_k
        ("controlled", "control", "p", 0.0, "p"),
        ("controlled", "control", "s_r0", 0.0, "s_r0"),
        ("basic", "initial", "K", -1.0, "K"),
        ("basic", "initial", "E", 0.0, "E"),
        ("basic", "integrator", "rel_tol", 0.0, "rel_tol"),
        ("basic", "params", "s_r_floor", -5, "s_r_floor"),
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
        with pytest.raises(ValidationError, match=f"^{name}: unknown key") \
                as info:
            load_scenario(json.dumps(doc))
        assert info.value.field == name

    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(st.text(), json_values.map(json.dumps),
                          edited_docs().map(json.dumps)))
    @example(text="[" * 100_000 + "]" * 100_000)  # RecursionError in json
    @example(text='{"horizon": ' + "1" * 5000 + "}")  # ValueError in json
    def test_any_text_raises_only_validation_error(self, text):
        try:
            load_scenario(text)
        except ValidationError:
            pass


def fault(build):
    """The field named by the ValidationError build() raises."""
    with pytest.raises(ValidationError) as info:
        build()
    return info.value.field


class TestCodeBuiltScenario:
    @pytest.mark.parametrize("doc,build", [
        (minimal_doc(kind="controlled"),
         lambda s: Scenario("controlled", s.params, s.initial, 200.0, 0.5)),
        (minimal_doc(kind="bogus"), lambda s: replace(s, kind="bogus")),
        (minimal_doc(chaos={"c": 0.5}),
         lambda s: replace(s, chaos=ChaosSpec(c=0.5))),
        (minimal_doc(horizon=0), lambda s: replace(s, horizon=0)),
        (minimal_doc(sample_step=-1), lambda s: replace(s, sample_step=-1)),
        (minimal_doc(kind="controlled", control={"p": 0.6, "s_r0": 0.1}),
         lambda s: replace(s, kind="controlled",
                           control=ControlSpec(p=0.6, s_r0=0.1))),
    ], ids=["missing block", "unknown kind", "block of another kind",
            "horizon", "sample_step", "p at 1 - s_k"])
    def test_fails_as_the_same_fault_in_a_document(self, doc, build):
        base = load_scenario(json.dumps(minimal_doc()))
        assert fault(lambda: build(base)) == \
            fault(lambda: load_scenario(json.dumps(doc)))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_chaos_spec_refuses_a_non_finite_value(self, value):
        with pytest.raises(ValidationError) as info:
            ChaosSpec(c=value)
        assert info.value.field == "c"
        with pytest.raises(ValidationError) as info:
            ChaosSpec(c=0.5, y0=value)
        assert info.value.field == "y0"

    def test_chaotic_without_integrator_runs_as_its_document(self):
        doc = minimal_doc(kind="chaotic", chaos={"c": 0.5}, horizon=2)
        loaded = load_scenario(json.dumps(doc))
        s = Scenario("chaotic", loaded.params, loaded.initial, 2.0, 0.5,
                     chaos=ChaosSpec(c=0.5))
        assert s.integrator == CHAOS_SETTINGS
        assert s == loaded
        assert load_scenario(dump_scenario(s)) == s
        assert write_trajectory_csv(run_scenario(s)) == \
            write_trajectory_csv(run_scenario(loaded))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(tuple(BLOCKS)),
           given_tols=st.fixed_dictionaries({}, optional={
               "rel_tol": number(1e-14, 1e-2), "abs_tol": number(1e-16, 1e-2)}))
    def test_document_equals_the_scenario_built_in_code(self, kind,
                                                        given_tols):
        # a document's integrator block sets the keys it names and leaves
        # the rest to the kind, as a Scenario built without one does
        doc = minimal_doc(kind=kind, horizon=2)
        kind_blocks = {"control": ControlSpec(p=0.47, s_r0=0.1),
                       "chaos": ChaosSpec(c=0.5)}
        blocks = {name: kind_blocks[name] for name in BLOCKS[kind]}
        doc.update({name: vars(block) for name, block in blocks.items()})
        if given_tols:
            doc["integrator"] = given_tols
        loaded = load_scenario(json.dumps(doc))
        built = Scenario(kind, loaded.params, loaded.initial, 2.0, 0.5,
                         **blocks)
        built = replace(built, integrator=replace(built.integrator,
                                                  **given_tols))
        assert loaded == built
        assert load_scenario(dump_scenario(built)) == built

    @pytest.mark.parametrize("kind", [["chaotic"], {"a": 1}, 3, None])
    def test_kind_that_is_not_a_str_is_refused_by_scenario(self, kind):
        doc = minimal_doc(kind=kind, integrator={"rel_tol": 1e-9})
        with pytest.raises(ValidationError) as info:
            load_scenario(json.dumps(doc))
        assert info.value.field == "kind"


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

    def test_at_on_fewer_than_two_samples(self):
        one = Trajectory(columns=("K",), times=np.array([2.0]),
                         data={"K": np.array([4.0])})
        assert one.at(2.0) == {"K": 4.0}
        empty = Trajectory(columns=("K",), times=np.empty(0),
                           data={"K": np.empty(0)})
        for traj, t in ((one, 2.0 + 1e-12), (one, 0.0), (empty, 0.0)):
            with pytest.raises(ValidationError) as exc:
                traj.at(t)
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

    @pytest.mark.parametrize("name", ["basic_baseline.json",
                                      "controlled_p047.json",
                                      "chaotic_plus.json"])
    def test_y_is_the_float_power_per_row(self, name):
        # libm's pow on each row, as the march computes Y: numpy's array
        # power differs from it in the last bit on hosts with AVX-512
        scenario = read_scenario(name)
        a, b = scenario.params.alpha, scenario.params.beta
        traj = run_scenario(scenario)
        assert traj["Y"].tolist() == [
            e ** a * k ** b for k, e in zip(traj["K"].tolist(),
                                            traj["E"].tolist())]

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

    def test_numpy_values_give_the_rows_of_floats(self):
        base = replace(read_scenario("basic_baseline.json"), sample_step=1.0)
        values = np.array([0.25, 0.21, 0.17])
        want = run_sweep(SweepSpec(base=base, parameter="delta_r",
                                   values=tuple(values.tolist()),
                                   report_time=200.0))
        # a tuple of numpy floats, and the array itself
        for given in (tuple(values), values):
            rows = run_sweep(SweepSpec(base=base, parameter="delta_r",
                                       values=given, report_time=200.0))
            assert [(r.Y, r.C, r.error) for r in rows] == \
                [(r.Y, r.C, r.error) for r in want]

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

    @pytest.mark.parametrize("name", sorted(
        p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_each_row_equals_the_full_run_at_its_report_time(self, name):
        # each row runs only to its report time; the grid prefix, and so
        # every step, is the full run's
        base = read_scenario(name)
        full = run_scenario(base)
        last = len(full.times) - 1
        for i in (0, 1, last // 3, last - 1, last):
            t = float(full.times[i])
            row = run_sweep(SweepSpec(base=base, parameter="delta_r",
                                      values=(base.params.delta_r,),
                                      report_time=t))[0]
            assert (row.Y, row.C) == (full.at(t)["Y"], full.at(t)["C"])

    def test_row_does_not_run_past_its_report_time(self):
        # with b = 0.5 the driver grows until K crosses 0 near t = 84, a
        # crawl of minutes at steps of ~1e-7; the row reports t = 1
        base = read_scenario("chaotic_plus.json")
        row = run_sweep(SweepSpec(base=base, parameter="b", values=(0.5,),
                                  report_time=1.0))[0]
        assert row.error is None and row.Y > 0

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
        for empty in ((), np.array([])):
            with pytest.raises(ValidationError) as exc:
                SweepSpec(base=base, parameter="s_r", values=empty,
                          report_time=200.0)
            assert exc.value.field == "values"

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


    def test_block_classes_share_no_field_name(self):
        # so that the block that owns a swept field is never in doubt
        names = [f.name for cls in {**_SHARED_BLOCKS, **_KIND_BLOCKS}.values()
                 for f in fields(cls)]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("kind,block,name", [
        (kind, block, f.name) for kind in BLOCKS
        for block, cls in {**_SHARED_BLOCKS, **BLOCKS[kind]}.items()
        for f in fields(cls)])
    def test_every_block_field_is_sweepable(self, kind, block, name):
        base = load_scenario(json.dumps(SWEEP_BASES[kind]))
        value = getattr(getattr(base, block), name)
        rejected = REJECTED.get(name)
        values = (value,) if rejected is None else (value, rejected[0])
        rows = run_sweep(SweepSpec(base=base, parameter=name, values=values,
                                   report_time=2.0))
        ref = run_scenario(base).at(2.0)
        assert (rows[0].Y, rows[0].C, rows[0].error) == \
            (ref["Y"], ref["C"], None)
        if rejected is None:
            # a chaos field's one rule, finiteness, has its own test below
            assert block == "chaos"
        else:
            assert rows[1].Y is None
            assert rows[1].error.startswith(f"{rejected[1]}: ")

    @pytest.mark.parametrize("name,value", [
        ("c", math.nan), ("c", math.inf), ("b", math.nan),
        ("x0", math.inf), ("z0", -math.inf)])
    def test_non_finite_chaos_value_fails_its_row_naming_the_field(
            self, name, value):
        base = replace(read_scenario("chaotic_plus.json"), horizon=2.0)
        rows = run_sweep(SweepSpec(
            base=base, parameter=name,
            values=(value, getattr(base.chaos, name)), report_time=1.0))
        assert rows[0].Y is None
        assert rows[0].error == f"{name}: must be finite, got {value}"
        assert rows[1].error is None

    def test_negative_or_nan_s_r_floor_fails_its_row(self):
        base = replace(read_scenario("controlled_p047.json"), horizon=2.0)
        rows = run_sweep(SweepSpec(base=base, parameter="s_r_floor",
                                   values=(-5.0, math.nan, 0.0),
                                   report_time=1.0))
        assert [r.error for r in rows] == [
            "s_r_floor: must be non-negative",
            "s_r_floor: must be finite, got nan", None]

    @pytest.mark.parametrize("kind,name", [
        ("basic", "x0"), ("basic", "p"), ("controlled", "c"),
        ("chaotic", "s_r0"), ("chaotic", "horizon"), ("basic", "kind"),
    ])
    def test_field_outside_the_kind_blocks_is_refused(self, kind, name):
        base = load_scenario(json.dumps(SWEEP_BASES[kind]))
        with pytest.raises(ValidationError) as info:
            SweepSpec(base=base, parameter=name, values=(1.0,),
                      report_time=2.0)
        assert info.value.field == "parameter"
        message = str(info.value)
        assert name in message and kind in message
        for block in {**_SHARED_BLOCKS, **_KIND_BLOCKS}:
            assert (block in message) == (block in _SHARED_BLOCKS
                                          or block in BLOCKS[kind])

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


def per_row(text):
    """read_trajectory_csv with np.loadtxt refusing every table, so that
    the per-row loop reads it."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return read_trajectory_csv(text)


# the texts a writer might give a double: shortest, 17 digits, exponent
# form, padded with spaces and tabs, upper case
CELL_FORMS = (repr, "{:.17g}".format, "{:.6e}".format, " {!r}\t".format,
              lambda x: repr(x).upper())


class TestCsvReader:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_pass_and_per_row_loop_read_the_same_bits(self, data):
        n, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
        cells = st.tuples(st.floats(), st.sampled_from(CELL_FORMS)).map(
            lambda cell: cell[1](cell[0]))
        rows = data.draw(st.lists(st.lists(cells, min_size=k, max_size=k),
                                  min_size=n, max_size=n))
        header = ",".join(f"c{j}" for j in range(k))
        text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
        fast, slow = read_trajectory_csv(text), per_row(text)
        assert fast[0] == slow[0] == tuple(header.split(","))
        assert fast[1].shape == slow[1].shape == (n, k)
        assert fast[1].dtype == slow[1].dtype == np.float64
        assert np.array_equal(fast[1].view(np.uint64),
                              slow[1].view(np.uint64))
        assert np.array_equal(
            slow[1].view(np.uint64),
            np.array([[float(c) for c in row] for row in rows]).view(
                np.uint64).reshape(n, k))

    @pytest.mark.parametrize("read", [read_trajectory_csv, per_row])
    def test_empty_cell_reads_as_nan(self, read):
        header, table = read("t,a,b\n0,,2\n1,3,\n")
        assert header == ("t", "a", "b")
        assert np.isnan(table[0, 1]) and np.isnan(table[1, 2])
        assert table[1, 1] == 3.0

    def test_underscores_and_non_ascii_digits_read_as_float_reads_them(self):
        # loadtxt refuses underscores and non-ASCII digits; float() reads them
        header, table = read_trajectory_csv("t,a\n1_0,\u0663\n2,-0.5\n")
        assert table.tolist() == [[10.0, 3.0], [2.0, -0.5]]

    @pytest.mark.parametrize("rows,field,message", [
        ("0,1\n1,  \n", "a", "non-numeric value '  ' in data row 2"),
        ("0,#\n", "a", "non-numeric value '#' in data row 1"),
        ("0,1\n1,2,3\n", "csv", "data row 2 has 3 cells, the header has 2"),
        ("0,1\n1\n", "csv", "data row 2 has 1 cells, the header has 2"),
        # loadtxt strips \x1f as whitespace, float() refuses it
        ("0,\x1f1\n", "a", "non-numeric value '\\x1f1' in data row 1"),
        ("\x1f0,1\n", "t", "non-numeric value '\\x1f0' in data row 1"),
        # rows end at "\n" only: str.splitlines() also breaks at these
        ("0,1\x1e2\n", "a", "non-numeric value '1\\x1e2' in data row 1"),
        ("0,1\x1c\n", "a", "non-numeric value '1\\x1c' in data row 1"),
        ("0,1\n1,2\u20283\n", "a",
         "non-numeric value '2\\u20283' in data row 2"),
    ], ids=["whitespace", "hash", "long-row", "short-row", "x1f-cell",
            "x1f-time", "x1e-in-row", "x1c-cell", "u2028-in-row"])
    def test_bad_table_raises_the_per_row_error(self, rows, field, message):
        for read in (read_trajectory_csv, per_row):
            with pytest.raises(ValidationError) as info:
                read("t,a\n" + rows)
            assert info.value.field == field
            assert str(info.value) == f"{field}: {message}"

    @settings(max_examples=200, deadline=None)
    @given(text=st.text() | st.text("0123456789.,-+eEnaifNI_# \t\r\n\x1f"))
    @pytest.mark.parametrize("read", [read_trajectory_csv, per_row])
    def test_any_text_raises_only_validation_error(self, read, text):
        try:
            read(text)
        except ValidationError:
            pass

    @pytest.mark.parametrize("read", [read_trajectory_csv, per_row])
    def test_crlf_rows_read_as_lf_rows(self, read):
        header, table = read("t,a\r\n0,1\r\n\r\n1,2.5\r")
        assert header == ("t", "a")
        assert table.tolist() == [[0.0, 1.0], [1.0, 2.5]]

    @pytest.mark.parametrize("text", ["t\n0\n1.5\n", "t\n1_0\n2\n"],
                             ids=["one-pass", "per-row"])
    def test_one_column_table_keeps_two_dimensions(self, text):
        header, table = read_trajectory_csv(text)
        assert header == ("t",) and table.shape == (2, 1)


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
        with pytest.raises(ValidationError) as info:
            render_svg([])
        assert info.value.field == "series"
        with pytest.raises(ValidationError) as info:
            render_svg([("x", np.array([]), np.array([]))])
        assert info.value.field == "x"

    @pytest.mark.parametrize("series", [
        [("a", [0.0, 1.0], [1.0, math.nan])],
        [("a", [0.0, math.inf], [1.0, 2.0])],
        [("a", [0.0, 1.0], [-math.inf, 2.0])],
        [("a", [0.0, 1.0], [-1e308, 1e308])],
        [("b", [0.0, 1.0], [1.0, 2.0]), ("a", [0.0, 1.0], [math.nan, 2.0])],
        [("b", [0.0, 1.0], [-1e308, 2.0]), ("a", [0.0, 1.0], [1e308, 2.0])],
    ], ids=["nan", "inf-time", "minus-inf", "span-overflows",
            "nan-in-a-later-series", "span-of-two-series-overflows"])
    def test_non_finite_data_is_refused_naming_the_series(self, series):
        with pytest.raises(ValidationError) as info:
            render_svg([(label, np.array(t), np.array(v))
                        for label, t, v in series])
        assert info.value.field == "a"

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 999.99, 999.995, 1e3, 1e17, -1e308,
        np.finfo(float).max, -np.finfo(float).max, 5e-324])
    @pytest.mark.parametrize("size", [3, _FIXED2_MIN_POINTS, 256])
    def test_any_finite_data_maps_into_the_plot(self, value, size):
        # every coordinate lies in [40, 780], so a long polyline always
        # takes the numpy formatter and never its fallback
        t = np.linspace(0.0, 1.0, size)
        constant, mixed = np.full(size, value), np.resize([1.0, 2.0, value],
                                                          size)
        for series in ([("a", t, constant)], [("a", constant, t)],
                       [("a", t, mixed), ("b", mixed, t)]):
            with mock.patch.object(scenario_io, "_points",
                                   wraps=scenario_io._points) as points, \
                    mock.patch.object(scenario_io, "_fixed2",
                                      wraps=scenario_io._fixed2) as fixed2:
                svg = render_svg(series)
            assert fixed2.call_count == (
                len(series) if size >= _FIXED2_MIN_POINTS else 0)
            for (x, y), _ in points.call_args_list:
                xy = np.concatenate([x, y])
                assert 40 <= xy.min() and xy.max() <= 780
                assert scenario_io._points(x, y) == reference_points(x, y)
            assert "nan" not in svg and "inf" not in svg


def reference_points(x, y):
    return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))


def interleaved(values):
    """x and y of a polyline of _FIXED2_MIN_POINTS points whose
    coordinates, in the order x0, y0, x1, y1, ..., repeat values."""
    v = np.resize(np.asarray(values, float), 2 * _FIXED2_MIN_POINTS)
    return v[0::2], v[1::2]


def decimal_ties():
    """Every (k + 0.5)/100 in (0, 999.99) and the doubles either side."""
    ties = (np.arange(99999) + 0.5) / 100
    return np.concatenate([np.nextafter(ties, -np.inf), ties,
                           np.nextafter(ties, np.inf)])


class TestPointFormatter:
    """_points writes what the per-point "{:.2f},{:.2f}".format writes."""

    @pytest.mark.parametrize("values", [
        decimal_ties(),
        np.arange(1, 8000) / 8,  # binary ties: every n/8 with n odd
        *(70 + np.arange(n) * 710 / (n - 1) for n in (401, 2001)),
        # the smallest values, subnormal ones too, all write 0.00
        np.resize([5e-324, 1e-310, 1e-300, 1e-9, 0.004999999999999999], 256),
    ], ids=["decimal-ties", "binary-ties", "grid-401", "grid-2001", "tiny"])
    def test_fixed_cases_take_numpy_and_match(self, values):
        x, y = values, values[::-1]
        with mock.patch.object(scenario_io, "_fixed2",
                               wraps=scenario_io._fixed2) as fixed2:
            assert scenario_io._points(x, y) == reference_points(x, y)
        assert fixed2.called

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 999.99, 999.995, 1e3, math.nan, math.inf, -math.inf])
    def test_values_outside_the_range_fall_back(self, value):
        x, y = interleaved([1.0, 2.0, 3.0, value])
        with mock.patch.object(scenario_io, "_fixed2",
                               side_effect=AssertionError):
            assert scenario_io._points(x, y) == reference_points(x, y)

    def test_short_polyline_falls_back(self):
        x, y = interleaved([12.345, 0.125])
        x, y = x[:_FIXED2_MIN_POINTS - 1], y[:_FIXED2_MIN_POINTS - 1]
        with mock.patch.object(scenario_io, "_fixed2",
                               side_effect=AssertionError):
            assert scenario_io._points(x, y) == reference_points(x, y)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1000.0, exclude_min=True,
                              exclude_max=True), min_size=1, max_size=64))
    def test_any_values_match(self, values):
        x, y = interleaved(values)
        assert scenario_io._points(x, y) == reference_points(x, y)


def reference_phase_csv(portrait):
    """write_phase_csv as one f-string per orbit row."""
    lines = ["record,index,t,K,E,dK,dE"]
    for i, row in enumerate(portrait.field_samples.tolist()):
        lines.append(f"field,{i},," + ",".join(map(repr, row)))
    for j, traj in enumerate(portrait.trajectories):
        lines += [f"orbit,{j},{t!r},{K!r},{E!r},," for t, (K, E)
                  in zip(traj.times.tolist(), traj.states.tolist())]
    return "\n".join(lines) + "\n"


# every double, and the ones whose text is easy to get wrong
doubles = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 3.0, -1e300,
     1.7976931348623157e308, math.nan, math.inf, -math.inf]))


@st.composite
def portraits(draw):
    """2-5 orbits of 1-40 samples, on one shared grid or on one each."""
    n = draw(st.integers(1, 40))
    grid = draw(st.lists(doubles, min_size=n, max_size=n))
    shared = draw(st.booleans())
    orbits = []
    for _ in range(draw(st.integers(2, 5))):
        times = grid if shared else draw(st.lists(doubles, min_size=1,
                                                  max_size=40))
        states = draw(st.lists(st.tuples(doubles, doubles),
                               min_size=len(times), max_size=len(times)))
        orbits.append(RawTrajectory(np.array(times, float),
                                    np.array(states, float)))
    field = draw(st.lists(st.tuples(*[doubles] * 4), min_size=1,
                          max_size=4))
    return scenario_io.PhasePortrait(np.array(field, float), tuple(orbits),
                                     None)


class TestPhasePortrait:
    @settings(max_examples=100, deadline=None)
    @given(portraits())
    def test_phase_csv_matches_the_per_row_writer(self, portrait):
        assert write_phase_csv(portrait) == reference_phase_csv(portrait)

    def test_phase_csv_keeps_grids_that_differ_only_in_sign(self):
        # 0.0 and -0.0 compare equal but are written apart
        orbits = tuple(RawTrajectory(np.array([t, 1.0]), np.ones((2, 2)))
                       for t in (0.0, -0.0, 0.0))
        portrait = scenario_io.PhasePortrait(np.ones((1, 4)), orbits, None)
        text = write_phase_csv(portrait)
        assert text == reference_phase_csv(portrait)
        assert "orbit,1,-0.0,1.0,1.0,," in text.split("\n")

    def test_phase_csv_orbit_without_samples_has_no_rows(self):
        orbits = (RawTrajectory(np.empty(0), np.empty((0, 2))),
                  RawTrajectory(np.array([0.0]), np.ones((1, 2))))
        portrait = scenario_io.PhasePortrait(np.ones((1, 4)), orbits, None)
        assert write_phase_csv(portrait) == reference_phase_csv(portrait) \
            == "record,index,t,K,E,dK,dE\nfield,0,,1.0,1.0,1.0,1.0\n" \
            "orbit,1,0.0,1.0,1.0,,\n"

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
        # and a grid that is not two integers (numpy integers are)
        for grid in ((2, 1), (2.5, 3), (2, "3"), 8, (2, 2, 2)):
            with pytest.raises(ValidationError) as exc:
                phase_portrait(baseline_params, (1.0, 2.0), (0.5, 1.0),
                               grid=grid, horizon=10.0)
            assert exc.value.field == "grid"
        portrait = phase_portrait(baseline_params, (1.0, 2.0), (0.5, 1.0),
                                  grid=(np.int64(2), np.int32(2)), horizon=1.0)
        assert len(portrait.trajectories) == 4

    def test_phase_csv_shape(self, baseline_params):
        portrait = phase_portrait(baseline_params, (1.0, 2.0), (0.5, 1.0),
                                  grid=(2, 2), horizon=2.0)
        lines = write_phase_csv(portrait).strip().split("\n")
        assert lines[0] == "record,index,t,K,E,dK,dE"
        assert sum(ln.startswith("field,") for ln in lines) == 4
        assert sum(ln.startswith("orbit,") for ln in lines) == 4 * 3
