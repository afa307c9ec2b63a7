"""Benchmark harness: instance generation, brute-force oracle, tightness.

Instances are generated with SplitMix64 so any implementation of that PRNG
reproduces them bit-for-bit: coefficients are drawn uniformly from [-1, 1]
in lexicographic exponent order (the constant term is included whenever the
zero exponent is part of the support set).
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assemble import assemble_relaxation
from .ipm import SolverConfig, solve_relaxation
from .models import ModelPolicy
from .patterns import (
    PatternFamily,
    build_family,
    tssos_partition,
    univariate_sparse_family,
    Pattern,
)
from .polynomials import Box, Polynomial, degrees_up_to, monomial_range, zero_exponent

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The standard splitmix64 generator; documented for reproducibility."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("randint needs a positive bound")
        limit = MASK64 - (MASK64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample(self, seq, k: int) -> list:
        """k distinct elements, by partial Fisher-Yates."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample larger than population")
        for i in range(k):
            j = i + self.randint(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


@dataclass
class Instance:
    id: str
    tag: str
    n: int
    seed: int
    f: Polynomial
    box: Box


@dataclass
class BenchRecord:
    instance_id: str
    family: str
    method: str
    sense: str
    value: float
    triv: float
    status: str
    iters: int
    time_s: float


STRUCTURED_SETS = {
    "A5": lambda: [(k, k) for k in range(11)],
    "A6": lambda: [(k, k, k, k) for k in range(11)],
    "A7": lambda: sorted(
        {tuple(k * e for e in alpha) for k in range(11)
         for alpha in [(1, 0), (0, 1), (1, 1)]}
    ),
    "A8": lambda: sorted(
        {tuple(k * e for e in alpha) for k in range(11)
         for alpha in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                       (1, 1, 1, 1)]}
    ),
    "Aex": lambda: [(0, 2), (1, 1), (2, 3), (2, 4), (4, 0), (5, 5)],
}

COMB_GUARD = 10_000_000


def exponent_set_for_tag(tag: str, rng: SplitMix64) -> list:
    """The support set named by an instance tag, lex sorted."""
    tag = tag.strip()
    if tag in STRUCTURED_SETS:
        return sorted(STRUCTURED_SETS[tag]())
    if tag.startswith("dense(") and tag.endswith(")"):
        n, d = _parse_two(tag[6:-1])
        if math.comb(n + d, d) > COMB_GUARD:
            raise ValueError(f"dense({n},{d}) would have {math.comb(n + d, d)} exponents")
        return degrees_up_to(n, d)
    if tag.startswith("S(") and tag.endswith(")"):
        n, d = _parse_two(tag[2:-1])
        count = math.comb(n + d, d)
        if count > COMB_GUARD:
            raise ValueError(f"S({n},{d}) base set would have {count} exponents")
        k = math.ceil(math.sqrt(count))
        return sorted(rng.sample(degrees_up_to(n, d), k))
    raise ValueError(f"unknown instance tag {tag!r}")


def _parse_two(body: str) -> tuple:
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {body!r}")
    return int(parts[0]), int(parts[1])


def gen_instance(tag: str, seed: int, box: Box | None = None) -> Instance:
    """Deterministic instance for (tag, seed); default box is the unit cube."""
    rng = SplitMix64(seed)
    exps = exponent_set_for_tag(tag, rng)
    n = len(exps[0])
    terms = {alpha: rng.uniform(-1.0, 1.0) for alpha in exps}
    f = Polynomial(n, terms)
    if box is None:
        box = Box.unit(n)
    return Instance(id=f"{tag}#{seed}", tag=tag, n=n, seed=seed, f=f, box=box)


# ---------------------------------------------------------------------------
# brute-force oracle


def eval_on_grid(f: Polynomial, X: np.ndarray) -> np.ndarray:
    out = np.zeros(len(X))
    for alpha, c in f.terms.items():
        term = np.full(len(X), c)
        for i, k in enumerate(alpha):
            if k:
                term = term * X[:, i] ** k
        out += term
    return out


@dataclass
class BruteForceResult:
    value: float
    point: np.ndarray
    budget_exceeded: bool = False

    def __float__(self):
        return self.value


def brute_force_min(f: Polynomial, box: Box, budget: int = 2_000_000,
                    grid: int = 21, refine_steps: int = 200,
                    starts: int = 10) -> BruteForceResult:
    """Grid scan plus projected coordinate descent; an upper bound on min f.

    This is the independent oracle the relaxation values are compared
    against; it never shares code with the relaxation path.
    """
    n = f.n
    if n > 6:
        raise ValueError("brute force grid phase is limited to n <= 6")
    if not box.bounded:
        raise ValueError("brute force needs a bounded box")
    per_axis = grid
    exceeded = False
    while per_axis ** n > budget and per_axis > 2:
        per_axis -= 1
        exceeded = True
    axes = [np.linspace(box.lower[i], box.upper[i], per_axis) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    vals = eval_on_grid(f, mesh)
    order = np.argsort(vals)[:starts]
    best_val = float(vals[order[0]])
    best_x = mesh[order[0]].copy()
    span = np.array(box.upper) - np.array(box.lower)
    for idx in order:
        x = mesh[idx].astype(float).copy()
        fx = float(vals[idx])
        step = span / max(per_axis - 1, 1)
        for _ in range(refine_steps):
            improved = False
            for i in range(n):
                for delta in (step[i], -step[i]):
                    xi = min(max(x[i] + delta, box.lower[i]), box.upper[i])
                    if xi == x[i]:
                        continue
                    cand = x.copy()
                    cand[i] = xi
                    fc = f.evaluate(cand)
                    if fc < fx - 1e-15:
                        x, fx = cand, fc
                        improved = True
            if not improved:
                step = step * 0.5
                if np.max(step) < 1e-12 * max(1.0, float(np.max(np.abs(span)))):
                    break
        if fx < best_val:
            best_val, best_x = fx, x
    return BruteForceResult(best_val, best_x, exceeded)


# ---------------------------------------------------------------------------
# family construction per benchmark method tag


def family_for_method(method: str, f: Polynomial) -> PatternFamily:
    support = set(f.support())
    support.discard(zero_exponent(f.n))
    if not support:
        support = {zero_exponent(f.n)}
    if method in ("M", "C", "S", "H", "MC", "T"):
        return build_family(method, support)
    if method == "tssos-sos":
        d = math.ceil(f.degree() / 2)
        B = degrees_up_to(f.n, d)
        A = set(f.support()) | {zero_exponent(f.n)}
        blocks = tssos_partition(A, B)
        pats = [Pattern(frozenset(exp_add_all(b)), kind="sos_block",
                        meta={"basis": tuple(sorted(b))}) for b in blocks]
        return PatternFamily(pats, f.n, kind="tssos-sos")
    if method == "univariate-sparse":
        A = set(f.support()) | {zero_exponent(f.n)}
        return univariate_sparse_family(A)
    raise ValueError(f"unknown method {method!r}")


def exp_add_all(block):
    from .polynomials import exp_add

    return {exp_add(a, b) for a in block for b in block}


def dense_sos_family(n: int, d: int) -> PatternFamily:
    """The single dense moment block on the degree-d basis."""
    B = tuple(degrees_up_to(n, d))
    pats = [Pattern(frozenset(exp_add_all(B)), kind="sos_block", meta={"basis": B})]
    return PatternFamily(pats, n, kind="dense-sos")


# ---------------------------------------------------------------------------
# tightness criterion and benchmark loop


def trivial_bounds(f: Polynomial, box: Box) -> tuple:
    """(trivmin, trivmax): objective range from per-monomial box bounds."""
    zero = zero_exponent(f.n)
    tmin = tmax = f.coefficient(zero)
    for alpha, c in f.terms.items():
        if alpha == zero:
            continue
        rng = monomial_range(alpha, box)
        tmin += min(c * rng.lo, c * rng.hi)
        tmax += max(c * rng.lo, c * rng.hi)
    return tmin, tmax


def solve_instance(f, fam, box, policy=None, sense="min", cfg=None):
    """Assemble, lower, and solve; returns (lowered program, result)."""
    prog = assemble_relaxation(f, fam, box, policy, sense)
    return solve_relaxation(prog, cfg or SolverConfig())


def triv_criterion(f: Polynomial, box: Box, fam: PatternFamily,
                   policy: ModelPolicy | None = None,
                   cfg: SolverConfig | None = None) -> float:
    """(max-relax - min-relax) / (trivmax - trivmin), clipped to [0, 1+1e-6]."""
    tmin, tmax = trivial_bounds(f, box)
    if tmax - tmin <= 1e-14:
        return 0.0
    _, rmin = solve_instance(f, fam, box, policy, "min", cfg)
    _, rmax = solve_instance(f, fam, box, policy, "max", cfg)
    if rmin.status != "optimal" or rmax.status != "optimal":
        raise RuntimeError(
            f"triv criterion needs optimal solves, got {rmin.status}/{rmax.status}"
        )
    vmax = -rmax.primal  # max solve minimizes -f
    vmin = rmin.primal
    val = (vmax - vmin) / (tmax - tmin)
    return min(max(val, 0.0), 1.0 + 1e-6)


@dataclass
class BenchConfig:
    families: list  # instance tags
    methods: list
    samples: int = 20
    base_seed: int = 1
    policy: ModelPolicy = field(default_factory=ModelPolicy)
    solver: SolverConfig = field(default_factory=SolverConfig)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchConfig":
        for key in ("families", "methods"):
            if key not in data:
                raise ValueError(f"bench config missing field '{key}'")
        policy = ModelPolicy(**data.get("policy", {}))
        solver = SolverConfig(**data.get("solver", {}))
        return cls(list(data["families"]), list(data["methods"]),
                   int(data.get("samples", 20)), int(data.get("base_seed", 1)),
                   policy, solver)


def _bench_one(inst: Instance, method: str, cfg: BenchConfig) -> list:
    records = []
    values = {}
    try:
        fam = family_for_method(method, inst.f)
    except Exception as exc:  # record the failure, never abort the run
        for sense in ("min", "max"):
            records.append(BenchRecord(inst.id, inst.tag, method, sense,
                                       math.nan, math.nan, f"error:{exc}", 0, 0.0))
        return records
    statuses = {}
    iters = {}
    times = {}
    for sense in ("min", "max"):
        t0 = time.perf_counter()
        try:
            prog = assemble_relaxation(inst.f, fam, inst.box, cfg.policy, sense)
            lowered = prog.lowered(cfg.solver.gmc_denominator_cap)
            from .ipm import solve

            t0 = time.perf_counter()  # time_s is the solve time alone
            res = solve(lowered, cfg.solver)
            status, it = res.status, res.iterations
            val = res.primal if sense == "min" else -res.primal
        except Exception as exc:
            status, it, val = f"error:{exc}", 0, math.nan
        times[sense] = time.perf_counter() - t0
        statuses[sense] = status
        iters[sense] = it
        values[sense] = val
    triv = math.nan
    if statuses["min"] == "optimal" and statuses["max"] == "optimal":
        tmin, tmax = trivial_bounds(inst.f, inst.box)
        if tmax - tmin <= 1e-14:
            triv = 0.0
        else:
            triv = min(max((values["max"] - values["min"]) / (tmax - tmin), 0.0),
                       1.0 + 1e-6)
    for sense in ("min", "max"):
        records.append(BenchRecord(inst.id, inst.tag, method, sense,
                                   values[sense], triv, statuses[sense],
                                   iters[sense], times[sense]))
    return records


def run_benchmark(cfg: BenchConfig) -> tuple:
    """Run all (instance, method) pairs; returns (records, summary rows)."""
    jobs = []
    for tag in cfg.families:
        for k in range(cfg.samples):
            inst = gen_instance(tag, cfg.base_seed + k)
            for method in cfg.methods:
                jobs.append((inst, method))
    threads = int(os.environ.get("PATTERN_RELAX_THREADS", "1"))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda jm: _bench_one(jm[0], jm[1], cfg), jobs))
    else:
        chunks = [_bench_one(inst, method, cfg) for inst, method in jobs]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.instance_id, r.method, r.sense))
    summary = summarize(records)
    return records, summary


def summarize(records) -> list:
    """Per-(family, method) median/quartiles of triv and mean wall time."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.family, rec.method), []).append(rec)
    rows = []
    for (family, method), recs in sorted(groups.items()):
        trivs = sorted({r.instance_id: r.triv for r in recs
                        if not math.isnan(r.triv)}.items())
        tvals = np.array([t for _, t in trivs])
        times = np.array([r.time_s for r in recs])
        if tvals.size:
            q1, med, q3 = np.percentile(tvals, [25, 50, 75])
        else:
            q1 = med = q3 = math.nan
        rows.append({
            "family": family, "method": method, "solved": len(tvals),
            "triv_q1": q1, "triv_median": med, "triv_q3": q3,
            "mean_time_s": float(times.mean()) if times.size else math.nan,
        })
    return rows


CSV_COLUMNS = ["instance_id", "family", "method", "sense", "value", "triv",
               "status", "iters", "time_s"]


def records_to_csv(records, include_time: bool = True) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.instance_id, r.family, r.method, r.sense,
            _num(r.value), _num(r.triv), r.status, r.iters,
            ("%.6f" % r.time_s) if include_time else "",
        ])
    return buf.getvalue()


def _num(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return ""
    return "%.12g" % v
