"""Smoke tests of the scripts under tools/.

Bit-identity checks compare the output of tools/solve_digests.py and
tools/relax_digests.py across commits, and tools/cold_start.py measures
start-up, so a library change that breaks a name a tool imports should fail
the test suite. Each tool runs in its own interpreter, as the demos do in
test_demos.py; PYTHONDONTWRITEBYTECODE keeps the runs from leaving bytecode
caches under perfbench/.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_solve_digests_prints_one_digest_per_solve():
    out = run_tool("tools/solve_digests.py", "--tag", "A5", "--method", "M",
                   "--seeds", "1", "--senses", "min")
    assert re.fullmatch(r"A5#1:min [0-9a-f]{64}\n", out), out


def test_relax_digests_prints_one_digest_per_program():
    out = run_tool("tools/relax_digests.py", "--tag", "A5", "--method", "M",
                   "--seeds", "1")
    assert re.fullmatch(r"A5#1:min [0-9a-f]{64}\nA5#1:max [0-9a-f]{64}\n", out), out


def test_relax_digests_leaves_the_unit_box_with_box_random():
    args = ("tools/relax_digests.py", "--tag", "dense(2,6)", "--method", "M", "--seeds", "1",
            "--senses", "min")
    unit, random = run_tool(*args), run_tool(*args, "--box", "random")
    assert re.fullmatch(r"dense\(2,6\)#1:min [0-9a-f]{64}\n", random), random
    assert random != unit


def test_cold_start_times_each_command_and_reports_scipy():
    out = run_tool("tools/cold_start.py", "--repeats", "1")
    times = r"median [0-9.]+ q1 [0-9.]+ q3 [0-9.]+"
    assert re.fullmatch(rf"import {times} scipy no\nrelax  {times} scipy no\n"
                        rf"solve  {times} scipy yes\n", out), out


def test_pool_check_help():
    assert "--workload" in run_tool("tools/pool_check.py", "--help")
