"""Every exception the library raises is a CapEduError named for its cause.

ValidationError is a bad argument, DomainError a state that left the
model's domain, StepLimitExceeded a march that cannot finish, and
StructurallyUnstable and NoSignChange an answer that does not exist.  So a
raise in src/capedu names a class of capedu.errors, raises type(exc) of
the error it caught, or re-raises bare.  cli.py alone raises others: its
OSError and ArgumentTypeError are usage errors, which exit 1.
"""

import ast
import inspect
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capedu
from capedu import (
    ChaosSpec, ControlSpec, EconState, IntegratorSettings, ModelParams,
    Scenario, SweepSpec, classify, controlled_equilibrium, errors,
    find_tipping, model, phase_portrait, render_svg, run_scenario,
    running_average, simulate_controlled, simulate_modulated, simulate_ne9,
)
from capedu.errors import (
    CapEduError, DomainError, StepLimitExceeded, ValidationError,
)
from capedu.integrator import _opaque, _step_source, integrate

SOURCE = Path(__file__).resolve().parent.parent / "src" / "capedu"
ERRORS = {name for name, obj in vars(errors).items()
          if isinstance(obj, type) and issubclass(obj, CapEduError)}


def foreign_raises(source: str) -> list[str]:
    """Each raise in source of a class not in capedu.errors, by the line and
    the text of what it raises: not Error(...), type(exc)(...) or bare."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Name) and raised.id in ERRORS:
            continue
        if (isinstance(raised, ast.Call) and isinstance(raised.func, ast.Name)
                and raised.func.id == "type"):
            continue
        found.append(f"line {node.lineno}: {ast.unparse(raised)}")
    return found


@pytest.mark.parametrize("source,expected", [
    ("raise ValidationError('x', 'bad')", []),
    ("raise DomainError", []),
    ("try:\n    f()\nexcept DomainError as exc:\n"
     "    raise type(exc)('more') from exc", []),
    ("try:\n    f()\nexcept ValueError:\n    raise", []),
    ("raise ValueError('bad')", ["line 1: ValueError"]),
    ("if x:\n    raise argparse.ArgumentTypeError(x)",
     ["line 2: argparse.ArgumentTypeError"]),
    ("raise exc", ["line 1: exc"]),
], ids=["error", "class", "type(exc)", "bare", "ValueError", "attribute",
        "variable"])
def test_the_walk_finds_each_foreign_raise(source, expected):
    assert foreign_raises(source) == expected


@pytest.mark.parametrize(
    "path", sorted(p for p in SOURCE.glob("*.py") if p.name != "cli.py"),
    ids=lambda path: path.name)
def test_library_raises_only_its_own_errors(path):
    assert foreign_raises(path.read_text()) == []


# the march of every System: any other field's, per dimension, and the model's
MARCHES = {"opaque field": _opaque(2), "opaque field of 1": _opaque(1),
           "opaque field of 3": _opaque(3), "basic system": model.BASIC,
           "ne9 system": model.NE9, "modulated system": model.MODULATED,
           "controlled system": model.CONTROLLED,
           "controlled_q system": model.CONTROLLED_Q}


@pytest.mark.parametrize("name", list(MARCHES))
def test_generated_march_raises_only_its_own_errors(name):
    assert foreign_raises(_step_source(MARCHES[name])) == []


def test_cli_raises_only_usage_errors_besides():
    raised = foreign_raises((SOURCE / "cli.py").read_text())
    assert {line.split(": ")[1] for line in raised} == \
        {"OSError", "argparse.ArgumentTypeError"}


# numbers a start or a field result may hold: any double, and often the
# ones that end a run
NUMBERS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308]))


def column(values):
    return np.array(values).reshape(-1, 1)


@st.composite
def runs(draw):
    """A start of n numbers, the field's results, each of any length and of
    a kind drawn per result, and t1."""
    n = draw(st.integers(1, 3))
    y0 = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    values = st.one_of(st.lists(NUMBERS, min_size=n, max_size=n),
                       st.lists(NUMBERS, max_size=n + 1))
    kinds = st.sampled_from([list, tuple, np.array, column])
    results = draw(st.lists(st.builds(lambda kind, v: kind(v), kinds, values),
                            min_size=1, max_size=8))
    return y0, results, draw(st.floats(1e-3, 1.0))


@settings(max_examples=200, deadline=None)
@given(run=runs())
@example(run=([1.0], [[0.5], [0.5], np.array([[0.5]])], 1.0))
@example(run=([1.0, 2.0], [np.array([0.5, 0.5]), [[0.5], [0.5]]], 1.0))
@example(run=([1.0], [[0.5], [None]], 1.0))
@example(run=([1.0, 2.0], [[0.5, 1.0], [None, 1.0]], 1.0))
def test_integrate_raises_only_its_own_errors(run):
    # the field returns its results in turn and then its last for good: a
    # field that changes on every call would take steps near abs_tol until
    # the step budget ends
    y0, results, t1 = run
    calls = itertools.count()

    def field(y):
        return results[min(next(calls), len(results) - 1)]

    try:
        integrate(field, y0, 0.0, t1)
    except (ValidationError, DomainError, StepLimitExceeded):
        pass


# --- foreign arguments at every export -------------------------------------

P = ModelParams(0.2, 0.2, 0.1, 0.1, 0.3, 0.4)
START = EconState(4.0, 1.0)
BASE = Scenario("basic", P, START, horizon=10.0, sample_step=1.0)
TRAJECTORY = run_scenario(BASE)

# each export that takes numbers or sequences, with valid arguments by name
# (each call succeeds or ends in a CapEduError of the model), and the names
# of the arguments that take numbers or sequences
CALLS = {
    "ModelParams": (ModelParams, dict(
        s_k=0.2, s_r=0.2, delta_k=0.1, delta_r=0.1, alpha=0.3, beta=0.4,
        s_r_floor=0.0)),
    "EconState": (EconState, dict(K=4.0, E=1.0)),
    "IntegratorSettings": (IntegratorSettings, dict(rel_tol=1e-8,
                                                    abs_tol=1e-10)),
    "ControlSpec": (ControlSpec, dict(p=0.3, s_r0=0.1)),
    "ChaosSpec": (ChaosSpec, dict(c=0.5, x0=0.5, y0=0.0, z0=0.0, b=0.55)),
    "Scenario": (Scenario, dict(kind="basic", params=P, initial=START,
                                horizon=10.0, sample_step=1.0),
                 "horizon", "sample_step"),
    "SweepSpec": (SweepSpec, dict(base=BASE, parameter="delta_r",
                                  values=(0.1, 0.2), report_time=10.0),
                  "values", "report_time"),
    "integrate": (integrate, dict(field=model.basic_rhs(P), y0=[4.0, 1.0],
                                  t0=0.0, t1=1.0, sample_step=0.5),
                  "y0", "t0", "t1", "sample_step"),
    "simulate_ne9": (simulate_ne9, dict(b=0.55, x0=0.5, y0=0.0, z0=0.0,
                                        horizon=1.0, sample_step=0.1)),
    "simulate_modulated": (simulate_modulated, dict(
        params=P, c=0.5, econ0=START, chaos0=(0.5, 0.0, 0.0), b=0.55,
        horizon=1.0, sample_step=0.1),
        "c", "chaos0", "b", "horizon", "sample_step"),
    "running_average": (running_average, dict(times=[0.0, 1.0, 2.0],
                                              values=[1.0, 2.0, 4.0])),
    "classify": (classify, dict(eigenvalues=[-1.0, -0.5])),
    "controlled_equilibrium": (controlled_equilibrium, dict(params=P, p=0.3),
                               "p"),
    "simulate_controlled": (simulate_controlled, dict(
        params=P, p=0.3, econ0=START, s_r0=0.1, horizon=1.0,
        sample_step=0.5), "p", "s_r0", "horizon", "sample_step"),
    "find_tipping": (find_tipping, dict(
        params=P, econ0=START, s_r0=0.1, horizon=10.0, p_low=0.6,
        p_high=0.79, tol=1e-2),
        "s_r0", "horizon", "p_low", "p_high", "tol"),
    "phase_portrait": (phase_portrait, dict(
        params=P, k_range=(1.0, 2.0), e_range=(0.5, 1.0), grid=(2, 2),
        horizon=2.0), "k_range", "e_range", "grid", "horizon"),
    "render_svg": (render_svg, dict(series=[("a", [0.0, 1.0], [1.0, 2.0])]),
                   "series"),
    "Trajectory.at": (TRAJECTORY.at, dict(t=1.0)),
}
# exports that check nothing they are given: records the library returns
RECORDS = {"EquilibriumReport", "IntegratorStats", "PhasePortrait",
           "RawTrajectory", "Stability", "SweepRow", "TippingResult",
           "Trajectory"}
# exports whose arguments are capedu objects or text; a foreign object there
# ends in Python's own AttributeError or TypeError, as README says
OBJECT_SLOTS = {"dump_scenario", "eigen_basic", "equilibrium",
                "equilibrium_report", "invariant_manifold", "jacobian_basic",
                "load_scenario", "run_scenario", "run_sweep",
                "write_phase_csv", "write_sweep_csv", "write_trajectory_csv"}
# output(params, K, E) is the Cobb-Douglas formula on floats or arrays,
# evaluated per sample; like a numpy ufunc it checks nothing
UNCHECKED = {"output"}


def numeric_arguments(name: str) -> tuple[str, ...]:
    """The arguments of CALLS[name] that take numbers or sequences: those
    named after its valid arguments, or else all of them."""
    _, valid, *named = CALLS[name]
    return tuple(named) or tuple(valid)


def exports() -> set[str]:
    """Each name `from capedu import *` takes, but modules and errors."""
    return {name for name, obj in vars(capedu).items()
            if not name.startswith("_") and not inspect.ismodule(obj)
            and not (isinstance(obj, type) and issubclass(obj, CapEduError))}


def takes_numbers(parameter: inspect.Parameter) -> bool:
    """Annotated as a number, not a function of numbers, or with a number or
    a tuple as its default."""
    annotation = str(parameter.annotation)
    return "Callable" not in annotation and bool(
        re.search(r"\b(float|int)\b", annotation)) or \
        isinstance(parameter.default, (int, float, tuple))


def test_every_export_that_takes_numbers_is_in_the_table():
    # so a new export cannot skip the test below
    assert exports() == (set(CALLS) - {"Trajectory.at"}) | RECORDS | \
        OBJECT_SLOTS | UNCHECKED
    for name in OBJECT_SLOTS:
        parameters = inspect.signature(getattr(capedu, name)).parameters
        assert not [p for p in parameters.values() if takes_numbers(p)], name
    for name, (function, valid, *_) in CALLS.items():
        parameters = inspect.signature(function).parameters
        assert set(valid) <= set(parameters), name
        assert {p.name for p in parameters.values() if takes_numbers(p)} <= \
            set(numeric_arguments(name)), name


# the wrong types and shapes each refused at its entry point, as export,
# the arguments replaced and the field the ValidationError names
PROBES = [
    ("ModelParams", dict(s_k="a"), "s_k"),
    ("EconState", dict(K=None), "K"),
    ("IntegratorSettings", dict(rel_tol="x"), "rel_tol"),
    ("Scenario", dict(horizon="x"), "horizon"),
    ("find_tipping", dict(tol="x"), "tol"),
    ("find_tipping", dict(p_low=None), "p"),
    ("controlled_equilibrium", dict(p="x"), "p"),
    ("simulate_controlled", dict(p="x"), "p"),
    ("integrate", dict(t1="x"), "t1"),
    ("integrate", dict(t0=None), "t0"),
    ("integrate", dict(sample_step="x"), "sample_step"),
    ("simulate_ne9", dict(x0="a"), "x0"),
    ("simulate_ne9", dict(x0=[1, 2]), "x0"),
    ("Trajectory.at", dict(t="x"), "t"),
    ("phase_portrait", dict(k_range=(1, "x")), "k_range"),
    ("phase_portrait", dict(k_range=(1, None)), "k_range"),
    ("phase_portrait", dict(k_range=(1, 2, 3)), "k_range"),
    ("phase_portrait", dict(k_range=5), "k_range"),
    ("running_average", dict(times="ab", values="cd"), "times"),
    ("render_svg", dict(series=[(1,)]), "series"),
    ("render_svg", dict(series=[("a", ["0", "1"], ["1", "2"])]), "a"),
    ("render_svg", dict(series=[("a", [[0, 1]], [[1, 2]])]), "a"),
    ("classify", dict(eigenvalues=["a"]), "eigenvalues"),
    ("classify", dict(eigenvalues=[math.nan]), "eigenvalues"),
    ("SweepSpec", dict(values="ab"), "values"),
    ("SweepSpec", dict(values=[None]), "values"),
]


def call(name: str, replaced: dict):
    function, valid, *_ = CALLS[name]
    return function(**{**valid, **replaced})


@pytest.mark.parametrize("name,replaced,field", PROBES, ids=[
    f"{name}({', '.join(f'{k}={v!r}' for k, v in replaced.items())})"
    for name, replaced, _ in PROBES])
def test_wrong_type_is_a_validation_error(name, replaced, field):
    with pytest.raises(ValidationError) as info:
        call(name, replaced)
    assert info.value.field == field
    assert info.value.exit_code == 2


def test_valid_arguments_give_an_answer_or_a_model_error():
    # the table's own arguments reach past every check
    for name in CALLS:
        try:
            call(name, {})
        except ValidationError:
            raise
        except CapEduError:
            pass


# lists of numbers and of the values that are not numbers, nested or not
ITEMS = st.one_of(st.floats(-10, 10), st.just(math.nan), st.none(),
                  st.booleans(), st.text(max_size=2),
                  st.complex_numbers(max_magnitude=10))
FOREIGN = st.one_of(
    st.text(max_size=3), st.none(), st.booleans(),
    st.complex_numbers(max_magnitude=1e3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.lists(ITEMS, max_size=4),
    st.lists(st.lists(ITEMS, max_size=3), max_size=3),
    st.lists(st.one_of(ITEMS, st.lists(ITEMS, max_size=3)), max_size=4))
# a search of runs to t = 1e308 is valid and spends the whole step budget
RUN_LENGTHS = FOREIGN.filter(lambda v: v != 1e308)
ARGUMENTS = [(name, arg) for name in CALLS for arg in numeric_arguments(name)]


@st.composite
def foreign_calls(draw):
    """An export and one of its number or sequence arguments, replaced by a
    foreign value."""
    name, arg = draw(st.sampled_from(ARGUMENTS))
    values = RUN_LENGTHS if (name, arg) == ("find_tipping", "horizon") \
        else FOREIGN
    return name, {arg: draw(values)}


def probes(test):
    for name, replaced, _ in PROBES:
        test = example(case=(name, replaced))(test)
    return test


@settings(max_examples=400, deadline=None)
@given(case=foreign_calls())
@probes
def test_foreign_argument_gives_an_answer_or_a_capedu_error(case):
    try:
        call(*case)
    except CapEduError:
        pass
