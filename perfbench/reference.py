"""Record the references that pick the workloads' instances and check their outputs.

Run from the repository root, at a commit whose bounds are trusted, first
without and then with each other BLAS kernel to check:

    python3 perfbench/reference.py --workload chain-c26 --instances 1-400
    python3 perfbench/reference.py --workload chain-c26 --instances 1-400 --kernel Haswell
    python3 perfbench/reference.py --workload chain-c26 --instances 1-400 --kernel Sandybridge

Without ``--kernel``, every job of the given instance seeds runs once with the
BLAS kernel OpenBLAS picks for this CPU, and its bound and the SHA-256 of its
SDPA export are recorded in ``perfbench/reference/<workload>.json``. With
``--kernel``, OpenBLAS is made to use that kernel (``OPENBLAS_CORETYPE``) and
every recorded job runs again.

An instance is excluded, with the reason, when one of its jobs raises, ends
other than optimal, has a certificate that does not verify, or under another
kernel gives a bound farther from the recorded one than the gate's tolerance
or another SDPA export. The solver's iterates depend on the rounding of the
BLAS kernel, and a few instances end in ``numerical_failure`` with one kernel
only, so a benchmark run on another CPU would fail them. Runs take their
instances from the rest (``workloads.instance_seeds``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--instances", required=True, help="inclusive range, e.g. 1-400")
    ap.add_argument("--kernel", help="OpenBLAS kernel to check the records with, "
                    "e.g. Haswell or Sandybridge")
    return ap.parse_args(argv)


def failure(w, out, ref) -> str | None:
    """Why a job's output disqualifies its instance, or None."""
    from gate import bound_tol, sdpa_digest

    if out.status.startswith("error") or (w.solve and out.status != "optimal"):
        return out.status
    if w.solve and not out.verified:
        return "certificate fails verification"
    if ref is not None:
        if w.solve and abs(out.value - ref["value"]) > bound_tol(ref["value"]):
            return f"bound {out.value!r}, recorded {ref['value']!r}"
        if sdpa_digest(out) != ref["sdpa_sha256"]:
            return "another SDPA export"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.kernel:
        os.environ["OPENBLAS_CORETYPE"] = args.kernel  # read when OpenBLAS loads
    sys.path[:0] = [str(HERE.parent / "src")]
    import run  # pins BLAS threads before numpy loads
    from gate import sdpa_digest
    from spans import NullTracer
    from workloads import WORKLOADS, Job, gen_instance, reference_path, run_job

    w = WORKLOADS[args.workload]
    kernel = run.blas_kernel()
    if args.kernel and kernel.lower() != args.kernel.lower():
        print(f"OpenBLAS runs the {kernel} kernel, not {args.kernel}", file=sys.stderr)
        return 2
    path = reference_path(w)
    rec = json.loads(path.read_text()) if path.exists() else {}
    if (rec.get("tag"), rec.get("method")) != (w.tag, w.method):
        if args.kernel:
            print(f"{path} holds no records to check", file=sys.stderr)
            return 2
        rec = {"tag": w.tag, "method": w.method, "kernels": [], "jobs": {}, "excluded": {}}
    if kernel not in rec["kernels"]:
        rec["kernels"].append(kernel)
    lo, hi = (int(s) for s in args.instances.split("-"))
    for s in range(lo, hi + 1):
        inst = gen_instance(w.tag, s)
        for sense in w.senses:
            job = Job(f"{inst.id}:{sense}", inst, sense)
            ref = rec["jobs"].get(job.key)
            if args.kernel and ref is None:
                continue
            try:
                out = run_job(w, job, NullTracer())
                why = failure(w, out, ref)
            except Exception as exc:  # an instance that raises is excluded too
                why = f"error:{type(exc).__name__}"
            if why is not None:
                rec["excluded"][inst.id] = f"{kernel}: {sense}: {why}"
                print(f"{job.key}: excluded ({kernel}: {why})", flush=True)
            elif ref is None:
                rec["jobs"][job.key] = {"value": out.value if w.solve else None,
                                        "sdpa_sha256": sdpa_digest(out)}
        if s % 20 == 0 or s == hi:
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(rec, indent=0, sort_keys=True) + "\n")
            print(f"{w.name} ({kernel}): instance {s}, {len(rec['jobs'])} jobs recorded, "
                  f"{len(rec['excluded'])} instances excluded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
