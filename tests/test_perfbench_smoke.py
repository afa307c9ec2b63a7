"""Smoke test of the benchmark harness against the library.

perfbench/smoke.py runs a tiny configuration of every workload and checks its
metrics and correctness gate. It runs here in its own interpreter, as the
demos do in test_demos.py, so that a library change which breaks a name the
benchmark imports fails the test suite. PYTHONDONTWRITEBYTECODE keeps the run
from leaving bytecode caches under perfbench/.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")
