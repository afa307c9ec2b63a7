"""patternrelax benchmark: one workload, timed end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lp-a6 --seed 1 --seconds 30 --trace 0

Each run is one closed loop in one process with one job at a time. The loop
first runs every job of the workload once, then cycles through them again
while the next job is expected to end within ``--seconds``. After the loop,
the correctness gate (gate.py) checks every output, outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` records spans around each layer call,
reports the per-layer metrics and writes the spans as JSONL under
``perfbench/out``. Metrics in seconds are scaled to a reference machine
speed by a calibration kernel timed between jobs (calibrate.py). The line
before the result records the environment, the scale, the unscaled metrics
and the tightness of the bounds (``triv_median``).
"""

from __future__ import annotations

import os

# One BLAS thread: with the default two, the same solve takes about twice as
# long and spreads more, which measures the scheduler rather than the program.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def measure_setup(w, seed: int) -> float:
    """Seconds from starting a fresh interpreter to having the workload's jobs.

    That covers interpreter start, importing the library (numpy, scipy) and
    generating the instances: what a user waits for before the first job.
    """
    code = (f"import sys; sys.path[:0] = {[str(HERE), str(SRC)]!r}; "
            f"from workloads import Workload, make_jobs; make_jobs({w!r}, {seed})")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def timed_loop(w, jobs, seconds: float, tr, cal):
    """Run every job once, then cycle while the next one should fit in time.

    The calibration kernel runs after each job, outside its timing. Returns
    (first, repeats, times): each job's first Outcome, (job index, status,
    value, SDPA digest) for later executions, and per-job seconds.
    """
    from gate import sdpa_digest
    from workloads import Outcome, run_job

    first: list = []
    repeats: list = []
    times = [[] for _ in jobs]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        i = k % len(jobs)
        if k >= len(jobs) and time.perf_counter() + _median(times[i]) > deadline:
            break
        job = jobs[i]
        tr.job = f"{job.key}#{k // len(jobs)}"
        t0 = time.perf_counter()
        with tr.span("job"):
            try:
                out = run_job(w, job, tr)
            except Exception as exc:  # one job's failure must not end the run
                out = Outcome(f"error:{type(exc).__name__}")
                print(f"{job.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        times[i].append(time.perf_counter() - t0)
        cal.after_job(times[i][-1])
        if k < len(jobs):
            first.append(out)
        else:
            digest = sdpa_digest(out) if out.sdpa is not None else None
            repeats.append((i, out.status, out.value, digest))
        del out  # a repeat's program must not stay alive through the next job
        k += 1
    return first, repeats, times


def end_to_end(times, failed, setup, peak_mb) -> dict:
    per_job = [_median(ts) for ts in times]
    return {
        "wall_s": (sum(per_job), "s"),
        "job_p50_s": (_median(per_job), "s"),
        "certified_frac": (1.0 - sum(failed) / len(failed), "fraction"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


LAYER_SPANS = {
    "patterns.family_s": "patterns.family",
    "models.build_s": "models.build",
    "assemble.s": "assemble",
    "program.lower_s": "program.lower",
    "program.export_s": "program.export",
    "ipm.solve_s": "ipm.solve",
    "certificates.extract_s": "certificates.extract",
    "certificates.verify_s": "certificates.verify",
    "io.instance_roundtrip_s": "io.instance_roundtrip",
}
STATUSES = ("optimal", "numerical_failure", "max_iter")


def per_layer(tr, jobs, first) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Times are seconds per pass over the workload: for each job, the median
    over its executions, summed over the jobs. Shapes are medians over jobs.
    """
    from spans import self_times

    per_exec = defaultdict(lambda: defaultdict(float))  # execution -> name -> s
    for rec, own in zip(tr.spans, self_times(tr.spans)):
        per_exec[rec["job"]][rec["name"]] += rec["end"] - rec["start"]
        per_exec[rec["job"]]["spans"] += 1
        if rec["name"] == "assemble":
            per_exec[rec["job"]]["assemble.self"] += own
    by_job = defaultdict(list)
    for name, spans in per_exec.items():
        by_job[name.rsplit("#", 1)[0]].append(spans)

    def pass_total(span):
        return sum(_median([e[span] for e in by_job[j.key]]) for j in jobs)

    m = {metric: (pass_total(span), "s") for metric, span in LAYER_SPANS.items()}
    wall = pass_total("job")
    m["assemble.self_s"] = (pass_total("assemble.self"), "s")
    m["assemble.share"] = (m["assemble.s"][0] / wall, "fraction")
    m["ipm.share"] = (m["ipm.solve_s"][0] / wall, "fraction")
    m["trace.wall_s"] = (wall, "s")
    m["trace.spans"] = (_median([e["spans"] for e in per_exec.values()]), "count")

    firsts = [tr.counts.get(f"{j.key}#0", {}) for j in jobs]
    m["models.rows"] = (_median([c.get("models.rows", 0) for c in firsts]), "count")
    m["models.lmis"] = (_median([c.get("models.lmis", 0) for c in firsts]), "count")

    built = [(o.family, o.program) for o in first if o.program is not None]
    shape = {
        "patterns.count": [len(fam) for fam, _ in built],
        "patterns.max_size": [max(len(p.exponents) for p in fam) for fam, _ in built],
        "assemble.cols": [low.ncols for _, low in built],
        "assemble.eq_rows": [len(low.eqs) for _, low in built],
        "assemble.ineq_rows": [len(low.ineqs) for _, low in built],
        "assemble.psd_blocks": [len(low.blocks) for _, low in built],
        "assemble.psd_max_m": [max((b.size for b in low.blocks), default=0)
                               for _, low in built],
        # computed from the shape: columns + rows + one entry per PSD upper triangle
        "ipm.kkt_dim": [low.ncols + len(low.eqs) + len(low.ineqs)
                        + sum(b.size * (b.size + 1) // 2 for b in low.blocks)
                        for _, low in built],
    }
    for name, xs in shape.items():
        m[name] = (_median(xs), "count")
    iters = sum(o.iters for o in first)
    m["ipm.iters"] = (iters, "count")
    m["ipm.s_per_iter"] = (m["ipm.solve_s"][0] / iters if iters else 0.0, "s")
    solved = [o.status for o in first
              if o.status != "exported" and not o.status.startswith("error")]
    for status in STATUSES:
        m[f"ipm.status.{status}"] = (solved.count(status), "count")
    m["ipm.status.other"] = (sum(s not in STATUSES for s in solved), "count")
    m["program.export_bytes"] = (_median([len(o.sdpa) for o in first if o.sdpa]), "bytes")
    m["certificates.pieces"] = (_median([o.pieces for o in first if o.verified]), "count")
    m["certificates.residual_max"] = (
        max((o.residual for o in first if o.verified), default=0.0), "1")
    return m


def triv_median(jobs, first):
    """The paper's tightness criterion, median over instances solved both ways.

    (max bound - min bound) / (trivmax - trivmin); lower is tighter. None on
    the relax path, which has no bounds.
    """
    from patternrelax.bench import trivial_bounds

    bounds = defaultdict(dict)
    for job, out in zip(jobs, first):
        if out.status == "optimal":
            bounds[job.instance.id][job.sense] = (job.instance, out.value)
    vals = []
    for b in bounds.values():
        if len(b) == 2:
            inst = b["min"][0]
            tmin, tmax = trivial_bounds(inst.f, inst.box)
            if tmax - tmin > 1e-14:
                vals.append((b["max"][1] - b["min"][1]) / (tmax - tmin))
    return _median(vals) if vals else None


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_kernel() -> str:
    """The kernel OpenBLAS chose for this CPU (or was told by OPENBLAS_CORETYPE).

    The solver's rounding, and so on a few instances its outcome, depends on it.
    """
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_kernel": blas_kernel(),
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
    }


def measure(w, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return the result object, plus its details."""
    import gate
    from calibrate import Calibrator
    from spans import NullTracer, Tracer, traced_models
    from workloads import make_jobs

    load_before = os.getloadavg()
    setup = [measure_setup(w, seed) for _ in range(setup_repeats)]
    jobs = make_jobs(w, seed)
    tr = Tracer() if trace else NullTracer()
    cal = Calibrator()
    with traced_models(tr) if trace else nullcontext():
        first, repeats, times = timed_loop(w, jobs, seconds, tr, cal)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = gate.check(w, jobs, first, repeats)
    raw = per_layer(tr, jobs, first) if trace else end_to_end(
        times, failed, setup, peak_mb)
    # times in reference seconds; see calibrate.py
    metrics = {k: (v * cal.scale if u == "s" else v, u) for k, (v, u) in raw.items()}
    env = environment()
    env["loadavg_before"], env["loadavg_after"] = load_before, os.getloadavg()
    return {
        "correct": not problems,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env,
        "triv_median": triv_median(jobs, first),
        "scale": cal.scale,
        "raw_metrics": {k: v for k, (v, u) in raw.items()},
        "problems": problems,
        "jobs": [{"job": j.key, "status": o.status, "value": o.value,
                  "times_s": ts}
                 for j, o, ts in zip(jobs, first, times)],
        "spans": tr.spans if trace else None,
    }


def main(argv=None) -> int:
    if not (SRC / "patternrelax").is_dir():
        print(f"perfbench: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = res.pop("spans")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in spans)
    stem.with_suffix(".json").write_text(json.dumps(res, indent=1))
    for p in res["problems"]:
        print(f"gate: {p}", file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("env", "triv_median", "scale", "raw_metrics")}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
