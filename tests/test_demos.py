"""Smoke test: the quick demos run to completion against the library.

Each demo runs in its own interpreter with ``src`` on the path and the BLAS
thread pins that conftest.py sets.  Demo 04 is left out: it drives the bench
harness for several seconds, and test_bench and test_cli cover that harness.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_worked_constraint_sets.py", "02_pattern_gallery.py",
         "03_relax_solve_certify.py", "05_exactness_showcases.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
