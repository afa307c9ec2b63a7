"""Run every job of a workload's reference pool and check it against the reference.

Run from the repository root:

    python3 tools/pool_check.py --workload chain-c26
    OPENBLAS_CORETYPE=Haswell python3 tools/pool_check.py --workload chain-c26

The pool is the instances of ``perfbench/reference/<workload>.json`` that are
not excluded (``workloads.instance_pool``), each with every sense of the
workload: the jobs that benchmark runs draw from. Each job runs through
``workloads.run_job`` with BLAS pinned to one thread and the BLAS kernel that
OpenBLAS picks for this CPU, or the one that ``OPENBLAS_CORETYPE`` names. A
job fails, as in ``perfbench/reference.py``, when it raises, ends other than
optimal, has a certificate that does not verify, gives a bound farther from
the recorded one than ``gate.bound_tol``, or gives another SDPA export.

The output names each failing job with the reason and its iteration count,
then the job count, the failure count and the largest deviation
|bound - reference| / (1 + |reference|) over the optimal jobs. Unlike
``perfbench/reference.py`` it records and excludes nothing, and it writes no
file. The exit status is 1 when a job fails.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS to one thread before numpy loads)
from reference import failure  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import (WORKLOADS, Job, gen_instance, instance_pool,  # noqa: E402
                       load_reference, run_job)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    rec = load_reference(w)
    if not rec:
        print(f"{w.name}: no reference record", file=sys.stderr)
        return 2
    print(f"{w.name}: BLAS kernel {run.blas_kernel()}", flush=True)
    t0 = time.perf_counter()
    count = failed = 0
    worst = 0.0
    for seed in instance_pool(w, rec):
        inst = gen_instance(w.tag, seed)
        for sense in w.senses:
            job = Job(f"{inst.id}:{sense}", inst, sense)
            ref = rec["jobs"][job.key]
            count += 1
            try:
                out = run_job(w, job, NullTracer())
                why = failure(w, out, ref)
            except Exception as exc:  # a job that raises is a failure, not the end
                traceback.print_exc()
                out, why = None, f"error:{type(exc).__name__}: {exc}"
            if out is not None and w.solve and math.isfinite(out.value):
                worst = max(worst, abs(out.value - ref["value"]) / (1.0 + abs(ref["value"])))
            if why is not None:
                failed += 1
                iters = "" if out is None else f" after {out.iters} iterations"
                print(f"{job.key}: {why}{iters}", flush=True)
    print(f"{w.name}: {count} jobs, {failed} failed, max deviation {worst:.3g}, "
          f"{time.perf_counter() - t0:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
