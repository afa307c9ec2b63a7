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

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args, stderr=False):
    """The tool's stdout, or (stdout, stderr) with stderr=True."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (proc.stdout, proc.stderr) if stderr else proc.stdout


def test_solve_digests_prints_one_digest_per_solve():
    out, err = run_tool("tools/solve_digests.py", "--tag", "A5", "--method", "M",
                        "--seeds", "1", "--senses", "min", stderr=True)
    assert re.fullmatch(r"A5#1:min [0-9a-f]{64}\n", out), out
    bound = r"(-?\d+(\.\d+)?(e[-+]\d+)?|nan)"  # the repr of a float
    assert re.fullmatch(rf"A5#1:min optimal \d+ it bound {bound} [0-9.]+ s \d+ MB peak RSS\n",
                        err), err


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


# tools/relax_digests.py at seed 1, sense min, on routes whose models write
# rows with a v_0 term: chain localizers (C), term sparsity (T), the mixed
# method (H), TSSOS blocks, shifted chains (S, shifted_chain_family) and
# vertex models on a random box (M). The digest covers the SDPA text,
# pieces, col_exponents and the lift. dense(3,4)/S with --box random is left
# out: it raises BuilderError at seed 1
PINNED_RELAX_DIGESTS = [
    ("dense(2,6)", "C", "unit",
     "0023095d1d215a9a5f613c5267e3af4de60db2f71df410b9248bd2c50c10104c"),
    ("dense(3,4)", "T", "unit",
     "a4b848e8d1492425d1726c7373219f2731d28bda50313493824c428fa751ebae"),
    ("dense(3,4)", "H", "unit",
     "300bd8338e3cdf5ff4558ec3590302ac1661348a9668849e21735dea272871ea"),
    ("A5", "tssos-sos", "unit",
     "43e5aa302e474a2e82273646fa939d1843f4937924c865b65e7406c4d2169453"),
    ("S(3,6)", "S", "unit",
     "5214ab1637d9ab21bd2efaee912c39705f1ef74d1a50d5138589008225f10887"),
    ("dense(2,6)", "M", "random",
     "71c9a6e31b5ba199d108b7490198126978dcee9913419a2a3aeceaa2e3cca4d2"),
]


@pytest.mark.parametrize("tag,method,box,digest", PINNED_RELAX_DIGESTS,
                         ids=[f"{t}/{m}/{b}" for t, m, b, _ in PINNED_RELAX_DIGESTS])
def test_relax_digests_are_pinned(tag, method, box, digest):
    out = run_tool("tools/relax_digests.py", "--tag", tag, "--method", method, "--seeds", "1",
                   "--senses", "min", "--box", box)
    assert out == f"{tag}#1:min {digest}\n"


def test_cold_start_times_each_command_and_reports_scipy():
    out = run_tool("tools/cold_start.py", "--repeats", "1")
    times = r"median [0-9.]+ q1 [0-9.]+ q3 [0-9.]+"
    assert re.fullmatch(rf"import {times} scipy no\nrelax  {times} scipy no\n"
                        rf"solve  {times} scipy yes\n", out), out


def test_pool_check_help():
    assert "--workload" in run_tool("tools/pool_check.py", "--help")
