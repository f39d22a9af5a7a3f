"""Every exception the library raises is a CapEduError named for its cause.

ValidationError is a bad argument, DomainError a state that left the
model's domain, StepLimitExceeded a march that cannot finish, and
StructurallyUnstable and NoSignChange an answer that does not exist.  So a
raise in src/capedu names a class of capedu.errors, raises type(exc) of
the error it caught, or re-raises bare.  cli.py alone raises others: its
OSError and ArgumentTypeError are usage errors, which exit 1.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capedu import errors, model
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
