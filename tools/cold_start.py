"""Time fresh interpreters that import the pipeline, relax an instance or solve it.

Run from the repository root:

    python3 tools/cold_start.py --repeats 10

Each run is a new interpreter with ``src`` on the path and BLAS pinned to
one thread, as in ``perfbench/run.py``. The three commands:

- ``import``: ``from patternrelax.pipeline import solve_relaxation``, the
  import of the README quick start (the package root alone loads nothing);
- ``relax``: ``import patternrelax.cli``, then ``gen`` and ``relax`` on
  dense(2,6) seed 1 with method C;
- ``solve``: ``import patternrelax.cli``, then ``gen`` and ``solve`` on the
  same instance.

The commands alternate (import, relax, solve, import, ...), so that a change
in machine load reaches all three alike. Each output line is
``<command> median <s> q1 <s> q3 <s> scipy <yes|no>``, where ``scipy`` says
whether any scipy module was loaded when a run of that command ended. The
parent waits for each child with a blocking ``Popen.wait()``: the polling
wait of ``subprocess.run`` with a timeout sleeps up to 50 ms at a time,
which would round the times up to those steps.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_REPORT = "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
_CLI = ("import sys; from patternrelax import cli; d = sys.argv[1]; "
        "cli.main(['gen', '--tag', 'dense(2,6)', '--seed', '1', '--out', d + '/inst.json']); "
        "cli.main(['{cmd}', '--instance', d + '/inst.json', '--method', 'C'{extra}]); ")
COMMANDS = {
    "import": "import sys; from patternrelax.pipeline import solve_relaxation; " + _REPORT,
    "relax": _CLI.format(cmd="relax", extra=", '--export-sdpa', d + '/prog.dat-s'") + _REPORT,
    "solve": _CLI.format(cmd="solve", extra="") + _REPORT,
}


def time_run(code: str, workdir: str, env: dict) -> tuple[float, bool]:
    """Seconds from start to exit of one interpreter, and whether it loaded scipy.

    The child's output (a few lines, ending in the scipy flag) fits the pipe's
    buffer, so it is read after the wait.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, workdir], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    rc = proc.wait()
    seconds = time.perf_counter() - t0
    out = proc.stdout.read()
    proc.stdout.close()
    if rc != 0:
        raise SystemExit(f"command exited with {rc}: {code}")
    return seconds, out.splitlines()[-1] == "True"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=10, help="runs of each command")
    args = ap.parse_args()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = {name: [] for name in COMMANDS}
    scipy_loaded = {name: False for name in COMMANDS}
    with tempfile.TemporaryDirectory() as workdir:
        for _ in range(args.repeats):
            for name, code in COMMANDS.items():
                seconds, loaded = time_run(code, workdir, env)
                times[name].append(seconds)
                scipy_loaded[name] |= loaded
    for name, ts in times.items():
        q1, med, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
        print(f"{name:<6} median {med:.3f} q1 {q1:.3f} q3 {q3:.3f} "
              f"scipy {'yes' if scipy_loaded[name] else 'no'}")


if __name__ == "__main__":
    main()
