"""Each demo runs to completion against the package in this checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # run a copy, so the demo writes its figures under tmp_path and leaves
    # demos/output/ in the checkout untouched; demos read ../scenarios
    (tmp_path / "demos").mkdir()
    shutil.copy(demo, tmp_path / "demos")
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, f"demos/{demo.name}"],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
