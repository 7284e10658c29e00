"""The experiment scripts run end to end and print the README's figures.

The printed figures come from floating-point results, so, as in
``test_golden.py``, the test runs only under the interpreter and numpy
versions that the golden digests record.
"""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "golden_digests.json").read_text(
    encoding="utf-8"))["environment"]
HERE = {"python": platform.python_version(), "numpy": np.__version__}

pytestmark = pytest.mark.skipif(
    PINNED != HERE, reason=f"figures recorded under {PINNED}, running under {HERE}")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_replication_demo_prints_the_readme_figures(tmp_path):
    result = run_script("replication_demo.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "rho=+0.039 p=0.767 n=60" in result.stdout
    assert re.search(r"^\s*love_hate\s+0\.000 of 45 pairs", result.stdout, re.M)


def test_recovery_study_runs():
    result = run_script("recovery_study.py", "--replicates", "3")
    assert result.returncode == 0, result.stderr
