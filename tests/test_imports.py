"""What a fresh interpreter loads: scipy comes in with the first solve only,
the package root loads no submodule, and the verifier loads only the
polynomial core.

Each check runs in its own interpreter, as the tools do in test_tools.py,
because the test session itself has long since imported scipy and every
submodule.
"""

import os
import subprocess
import sys
from pathlib import Path

from patternrelax.bench import family_for_method, gen_instance
from patternrelax.pipeline import solve_relaxation

ROOT = Path(__file__).resolve().parent.parent


def run_python(code, *args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


NON_SOLVING_COMMANDS = """
import sys
import patternrelax
from patternrelax import cli
inst, sdpa, cert = (f"{sys.argv[1]}/{name}" for name in ("inst.json", "prog.dat-s", "cert.json"))
assert cli.main(["gen", "--tag", "S(2,4)", "--seed", "3", "--out", inst]) == 0
assert cli.main(["relax", "--instance", inst, "--method", "C", "--export-sdpa", sdpa]) == 0
assert cli.main(["verify", "--certificate", cert, "--instance", inst]) == 0
print("before solve:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
assert cli.main(["solve", "--instance", inst, "--method", "C"]) == 0
print("after solve:", "scipy.sparse.linalg" in sys.modules)
"""


def test_gen_relax_verify_load_no_scipy_and_solve_does(tmp_path):
    inst = gen_instance("S(2,4)", 3)  # the instance that gen writes in the child
    rel = solve_relaxation(inst.f, family_for_method("C", inst.f), inst.box)
    cert, report = rel.certify()
    assert report.passed
    (tmp_path / "cert.json").write_text(cert.dumps())
    out = run_python(NON_SOLVING_COMMANDS, tmp_path)
    assert "before solve: []" in out and out[-1] == "after solve: True", out


FIRST_CLOCK_READ = """
import sys
import time
import types
from patternrelax import pipeline
from patternrelax.bench import family_for_method, gen_instance
assert "scipy.sparse.linalg" not in sys.modules
loaded = []

def perf_counter():
    loaded.append("scipy.sparse.linalg" in sys.modules)
    return time.perf_counter()

pipeline.time = types.SimpleNamespace(perf_counter=perf_counter)
inst = gen_instance("dense(2,6)", 1)
rel = pipeline.solve_relaxation(inst.f, family_for_method("C", inst.f), inst.box)
print(rel.result.status, loaded[0])
"""


def test_first_solve_starts_its_clock_with_the_solver_loaded():
    # solve_s must not include scipy's import, which the first solve triggers
    assert run_python(FIRST_CLOCK_READ) == ["optimal True"]


LOADED_SUBMODULES = """
import sys
import {}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "patternrelax")))
"""


def test_package_root_loads_nothing_and_verifier_only_the_polynomial_core():
    assert run_python(LOADED_SUBMODULES.format("patternrelax")) == ["patternrelax"]
    assert run_python(LOADED_SUBMODULES.format("patternrelax.certificates")) == [
        "patternrelax patternrelax.certificates patternrelax.polynomials"]
