"""Correctness gate, run after the timed loop on what each job produced.

A job with no output (an exception, or a solve that did not end optimal)
counts as failed. A job whose output fails a check also counts as failed,
and it makes the run incorrect:

- a min bound above the brute-force oracle, or a max bound below it;
- a certificate that ``verify_certificate`` rejects;
- an SDPA export that does not parse back to the same column count, or a
  lifted box point that violates the lowered program;
- a bound looser than the one recorded in ``reference/<workload>.json`` from
  the library as it was when the benchmark was written, or a different SDPA
  export (every job of a workload has a record);
- a repeat of a job that does not reproduce its first output.
"""

from __future__ import annotations

import hashlib
import math

from patternrelax.bench import SplitMix64, brute_force_min
from patternrelax.program import export_sdpa, parse_sdpa
from workloads import load_reference

# Every grid point is feasible, so a coarse grid with few descent starts still
# bounds the optimum; at n=4 it costs about a tenth of the library default.
ORACLE = {"grid": 11, "starts": 3}
LIFT_POINTS = 3
LIFT_TOL = 1e-9
REPEAT_RTOL = 1e-9


def bound_tol(v: float) -> float:
    return 1e-6 * (1.0 + abs(v))


def sdpa_digest(out) -> str:
    text = out.sdpa if out.sdpa is not None else export_sdpa(out.program)
    return hashlib.sha256(text.encode()).hexdigest()


def oracle(job) -> float:
    """Brute-force estimate of the optimum in the job's sense (min or max)."""
    f, box = job.instance.f, job.instance.box
    if job.sense == "min":
        return brute_force_min(f, box, **ORACLE).value
    return -brute_force_min(-f, box, **ORACLE).value


def _check_solve(job, out, ref) -> list[str]:
    problems = []
    if not out.verified:
        problems.append("certificate fails verification")
    best = oracle(job)
    slack = out.value - best if job.sense == "min" else best - out.value
    if slack > bound_tol(best):
        problems.append(f"bound {out.value:.12g} is not sound against the oracle {best:.12g}")
    if ref:
        looser = ref["value"] - out.value if job.sense == "min" else out.value - ref["value"]
        if looser > bound_tol(ref["value"]):
            problems.append(f"bound {out.value:.12g} is looser than the reference {ref['value']:.12g}")
    return problems


def _check_relax(job, out) -> list[str]:
    problems = []
    low = out.program
    ncols = parse_sdpa(out.sdpa).ncols
    if ncols != low.ncols:
        problems.append(f"SDPA export parses back to {ncols} columns, not {low.ncols}")
    box = job.instance.box
    rng = SplitMix64(job.instance.seed)
    for _ in range(LIFT_POINTS):
        x = [rng.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper)]
        worst = low.max_violation(low.lift_point(x))
        if worst > LIFT_TOL:
            problems.append(f"lifted box point violates the program by {worst:.3e}")
    return problems


def check(w, jobs, first: list, repeats: list) -> tuple[list, list]:
    """Check every job's first output and every repeat.

    ``first[i]`` is job i's first Outcome; ``repeats`` holds (i, status,
    value, digest) for later executions. Returns (failed, problems): one
    flag per job for its first output, one flag per repeat, and a list of
    messages for outputs that are wrong.
    """
    reference = load_reference(w).get("jobs", {})
    problems: list[str] = []
    job_failed = []
    digests = []
    for job, out in zip(jobs, first):
        digest = None
        if out.status.startswith("error") or (w.solve and out.status != "optimal"):
            job_failed.append(True)
            digests.append(digest)
            continue
        ref = reference.get(job.key)
        found = _check_solve(job, out, ref) if w.solve else _check_relax(job, out)
        if ref or not w.solve:
            digest = sdpa_digest(out)
        if ref and digest != ref["sdpa_sha256"]:
            found.append("SDPA export differs from the reference")
        problems.extend(f"{job.key}: {p}" for p in found)
        job_failed.append(bool(found))
        digests.append(digest)
    repeat_failed = []
    for i, status, value, digest in repeats:
        out = first[i]
        same = status == out.status and (
            math.isnan(value) and math.isnan(out.value)
            or abs(value - out.value) <= REPEAT_RTOL * (1.0 + abs(out.value)))
        if digest is not None:
            same = same and digest == digests[i]
        if not same:
            problems.append(f"{jobs[i].key}: a repeat gave {status} {value!r}, "
                            f"not {out.status} {out.value!r}")
        repeat_failed.append(job_failed[i] or not same)
    return job_failed + repeat_failed, problems
