"""src/capedu calls no numpy transcendental function.

numpy computes these in its own SIMD loops where the host has them, and
those loops round differently from libm and from each other, so a pinned
byte could then depend on the host.  The package keeps to Python floats
(math and libm) or to numpy's elementwise + and *, which round alike
everywhere (tests/test_portable_bits.py runs the pins with AVX-512 off).
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "capedu"
TRANSCENDENTAL = {
    "exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "logaddexp",
    "logaddexp2", "power", "float_power", "cbrt",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
    "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
    "asinh", "acosh", "atanh",
}


def numpy_transcendentals(source: str) -> list[str]:
    """Each use of a numpy transcendental in source: np.exp, numpy.log, or
    one imported by name from numpy, called or passed as a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTAL
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found += [f"line {node.lineno}: from {node.module} import "
                      f"{alias.name}" for alias in node.names
                      if alias.name in TRANSCENDENTAL]
    return found


@pytest.mark.parametrize("source,expected", [
    ("y = np.exp(x)", ["line 1: np.exp"]),
    ("y = list(map(numpy.sinh, xs))", ["line 1: numpy.sinh"]),
    ("from numpy import power, sqrt", ["line 1: from numpy import power"]),
    ("y = math.exp(x) + np.sqrt(x) + x.log", []),
], ids=["call", "passed", "imported", "allowed"])
def test_the_walk_finds_each_use(source, expected):
    assert numpy_transcendentals(source) == expected


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_calls_no_numpy_transcendental(path):
    assert numpy_transcendentals(path.read_text()) == []
