"""The pinned bytes and run sequences do not depend on numpy's SIMD loops.

Every pinned number comes from Python floats (libm's pow) or from numpy's
elementwise + and *, which round alike on every host.  numpy's array power
does not where it dispatches to AVX-512 loops, so the pins are run again in
a child pytest with those loops switched off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

umath = pytest.importorskip("numpy._core._multiarray_umath")

ROOT = Path(__file__).resolve().parent.parent
AVX512 = [name for name in umath.__cpu_dispatch__
          if (name == "X86_V4" or name.startswith("AVX512"))
          and umath.__cpu_features__.get(name)]


@pytest.mark.skipif(not AVX512, reason="numpy dispatches no AVX-512 loops")
def test_pins_hold_without_avx512():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_output_bytes.py",
         "tests/test_control.py::TestFindTipping"
         "::test_closed_gate_makes_the_unseeded_runs"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr
