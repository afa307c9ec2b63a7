"""Workloads and the job each one runs through the library's public functions.

A solve job follows ``patternrelax solve``: instance JSON -> pattern family
-> assemble -> lower -> solve -> extract certificate -> verify certificate.
A relax job follows ``patternrelax relax``: instance JSON -> family ->
assemble -> lower -> SDPA export, with no solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import Instance, family_for_method, gen_instance
from patternrelax.certificates import extract_certificate, verify_certificate
from patternrelax.io import export_instance_json, import_instance_json
from patternrelax.ipm import SolverConfig, solve
from patternrelax.models import ModelPolicy
from patternrelax.program import export_sdpa

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
POLICY = ModelPolicy()
SOLVER = SolverConfig()


@dataclass(frozen=True)
class Workload:
    name: str
    tag: str  # instance tag understood by patternrelax.bench.gen_instance
    method: str  # pattern method understood by patternrelax.bench.family_for_method
    instances: int  # instances per run
    senses: tuple
    solve: bool  # False for the relax path, which ends in SDPA export


WORKLOADS = {w.name: w for w in (
    Workload("lp-a6", "A6", "M", 20, ("min", "max"), True),
    Workload("chain-c26", "dense(2,6)", "C", 18, ("min", "max"), True),
    Workload("relax-d64", "dense(6,4)", "M", 4, ("min",), False),
)}


@dataclass(frozen=True)
class Job:
    key: str  # "<instance id>:<sense>"
    instance: Instance
    sense: str


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def load_reference(w: Workload) -> dict:
    """The workload's reference record, or {} if none matches its tag and method.

    The record (written by reference.py) holds each validated job's bound and
    SDPA digest under "jobs", and under "excluded" the instances that failed
    with one of the BLAS kernels in "kernels".
    """
    path = reference_path(w)
    if not path.exists():
        return {}
    rec = json.loads(path.read_text())
    if (rec["tag"], rec["method"]) != (w.tag, w.method):
        return {}
    return rec


def instance_pool(w: Workload, rec: dict) -> list[int]:
    """Instance seeds whose every job has a reference and none is excluded."""
    jobs, excluded = rec["jobs"], rec["excluded"]
    seeds = {int(key.split("#")[1].split(":")[0]) for key in jobs}
    return sorted(s for s in seeds
                  if f"{w.tag}#{s}" not in excluded
                  and all(f"{w.tag}#{s}:{sense}" in jobs for sense in w.senses))


def instance_seeds(w: Workload, seed: int) -> list[int]:
    """Seed 1 takes the first k instances of the pool, seed 2 the next k, and so on.

    The pool is the validated instances of the workload's reference record,
    taken cyclically, so every seed gets instances that ran correctly with
    each BLAS kernel checked. A workload without a record (the smoke test's
    tiny ones) takes instance seeds (seed-1)*k+1 .. seed*k.
    """
    k = w.instances
    rec = load_reference(w)
    if not rec:
        return list(range((seed - 1) * k + 1, seed * k + 1))
    pool = instance_pool(w, rec)
    if len(pool) < k:
        raise ValueError(f"{w.name}: {len(pool)} validated instances, {k} needed")
    return [pool[((seed - 1) * k + j) % len(pool)] for j in range(k)]


def make_jobs(w: Workload, seed: int) -> list[Job]:
    jobs = []
    for s in instance_seeds(w, seed):
        inst = gen_instance(w.tag, s)
        jobs.extend(Job(f"{inst.id}:{sense}", inst, sense) for sense in w.senses)
    return jobs


@dataclass
class Outcome:
    """What one job produced; the gate checks it after the timed loop."""

    status: str  # solver status, "exported", or "error:<exception type>"
    value: float = math.nan  # the bound, in the sense of the job
    verified: bool = False
    iters: int = 0
    pieces: int = 0
    residual: float = math.nan
    family: object = None
    program: object = None  # the lowered program
    sdpa: str | None = None


def run_job(w: Workload, job: Job, tr) -> Outcome:
    inst = job.instance
    with tr.span("io.instance_roundtrip"):
        f, box, _, _ = import_instance_json(export_instance_json(inst.f, inst.box))
    with tr.span("patterns.family"):
        fam = family_for_method(w.method, f)
    with tr.span("assemble"):
        prog = assemble_relaxation(f, fam, box, POLICY, job.sense)
    with tr.span("program.lower"):
        low = prog.lowered(SOLVER.gmc_denominator_cap)
    out = Outcome("exported", family=fam, program=low)
    if not w.solve:
        with tr.span("program.export"):
            out.sdpa = export_sdpa(low)
        return out
    with tr.span("ipm.solve"):
        res = solve(low, SOLVER)
    out.status, out.iters = res.status, res.iterations
    if res.status != "optimal":
        return out
    out.value = res.primal if job.sense == "min" else -res.primal
    with tr.span("certificates.extract"):
        cert = extract_certificate(low, res)
    with tr.span("certificates.verify"):
        rep = verify_certificate(cert, f if job.sense == "min" else -f, box)
    out.verified, out.pieces, out.residual = rep.passed, len(cert.pieces), rep.max_residual
    return out
