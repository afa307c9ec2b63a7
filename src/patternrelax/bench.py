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
from dataclasses import dataclass, field

import numpy as np

from .ipm import SolverConfig
from .models import ModelPolicy
from .patterns import PatternFamily, build_family
from .pipeline import solve_relaxation
from .polynomials import (Box, Polynomial, _integer, degrees_up_to, monomial_range,
                          zero_exponent)

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


def gen_instance(tag: str, seed: int) -> Instance:
    """Deterministic instance for (tag, seed) on the unit cube."""
    rng = SplitMix64(seed)
    exps = exponent_set_for_tag(tag, rng)
    n = len(exps[0])
    terms = {alpha: rng.uniform(-1.0, 1.0) for alpha in exps}
    f = Polynomial(n, terms)
    return Instance(id=f"{tag}#{seed}", tag=tag, n=n, seed=seed, f=f, box=Box.unit(n))


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


# the grid phase scans at most this many points, with fewer per axis if need be
BRUTE_FORCE_BUDGET = 2_000_000
# coordinate-descent sweeps from each start
BRUTE_FORCE_REFINE_STEPS = 200


@dataclass
class BruteForceResult:
    value: float
    point: np.ndarray


def brute_force_min(f: Polynomial, box: Box, grid: int = 21,
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
    while per_axis ** n > BRUTE_FORCE_BUDGET and per_axis > 2:
        per_axis -= 1
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
        for _ in range(BRUTE_FORCE_REFINE_STEPS):
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
    return BruteForceResult(best_val, best_x)


# ---------------------------------------------------------------------------
# family construction per benchmark method tag


def family_for_method(method: str, f: Polynomial) -> PatternFamily:
    """The method's family on f's support without the constant term ({0} for a constant f)."""
    zero = zero_exponent(f.n)
    return build_family(method, f.support() - {zero} or {zero})


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


def _tightness(f: Polynomial, box: Box, bounds) -> float:
    """(vmax - vmin) / (trivmax - trivmin), clipped to [0, 1+1e-6].

    bounds() returns the relaxation's (vmin, vmax); it is not called when the
    trivial range is degenerate, where the score is 0.
    """
    tmin, tmax = trivial_bounds(f, box)
    if tmax - tmin <= 1e-14:
        return 0.0
    vmin, vmax = bounds()
    return min(max((vmax - vmin) / (tmax - tmin), 0.0), 1.0 + 1e-6)


def triv_criterion(f: Polynomial, box: Box, fam: PatternFamily,
                   policy: ModelPolicy | None = None,
                   cfg: SolverConfig | None = None) -> float:
    """(max-relax - min-relax) / (trivmax - trivmin), clipped to [0, 1+1e-6]."""

    def bounds():
        rmin = solve_relaxation(f, fam, box, "min", policy, cfg)
        rmax = solve_relaxation(f, fam, box, "max", policy, cfg)
        statuses = (rmin.result.status, rmax.result.status)
        if statuses != ("optimal", "optimal"):
            raise RuntimeError("triv criterion needs optimal solves, got %s/%s" % statuses)
        return rmin.bound, rmax.bound

    return _tightness(f, box, bounds)


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
            names = data[key]
            if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
                # a string is refused, not read as a list of its characters
                raise TypeError(f"bench config field '{key}' must be a list of strings")
        samples = _integer(data.get("samples", 20))
        if samples < 1:
            raise ValueError("bench config field 'samples' must be >= 1")
        policy = ModelPolicy(**data.get("policy", {}))
        solver = SolverConfig(**data.get("solver", {}))
        return cls(data["families"], data["methods"], samples,
                   _integer(data.get("base_seed", 1)), policy, solver)


def _bench_one(inst: Instance, method: str, cfg: BenchConfig) -> list:
    """The min and max rows of one (instance, method) pair.

    A failure is recorded in the row's status, never raised.  time_s is the
    solve time alone, 0 in a row whose solve did not run.
    """
    runs = {}  # sense -> (value, status, iters, time_s)
    try:
        fam = family_for_method(method, inst.f)
        for sense in ("min", "max"):
            try:
                rel = solve_relaxation(inst.f, fam, inst.box, sense, cfg.policy, cfg.solver)
                runs[sense] = (rel.bound, rel.result.status, rel.result.iterations, rel.solve_s)
            except Exception as exc:
                runs[sense] = (math.nan, f"error:{exc}", 0, 0.0)
    except Exception as exc:
        runs = dict.fromkeys(("min", "max"), (math.nan, f"error:{exc}", 0, 0.0))
    triv = math.nan
    if runs["min"][1] == runs["max"][1] == "optimal":
        triv = _tightness(inst.f, inst.box, lambda: (runs["min"][0], runs["max"][0]))
    return [BenchRecord(inst.id, inst.tag, method, sense, value, triv, status, it, t)
            for sense, (value, status, it, t) in runs.items()]


def run_benchmark(cfg: BenchConfig) -> tuple:
    """Run all (instance, method) pairs; returns (records, summary rows)."""
    jobs = []
    for tag in cfg.families:
        for k in range(cfg.samples):
            inst = gen_instance(tag, cfg.base_seed + k)
            for method in cfg.methods:
                jobs.append((inst, method))
    records = [rec for inst, method in jobs for rec in _bench_one(inst, method, cfg)]
    records.sort(key=lambda r: (r.instance_id, r.method, r.sense))
    summary = summarize(records)
    return records, summary


def summarize(records) -> list:
    """Per-(family, method) median/quartiles of triv and mean wall time.

    solved counts the instances whose min and max solves both ended
    optimal (those with a triv), out of the group's instances.
    """
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
            "instances": len({r.instance_id for r in recs}),
            "triv_q1": q1, "triv_median": med, "triv_q3": q3,
            "mean_time_s": float(times.mean()) if times.size else math.nan,
        })
    return rows


CSV_COLUMNS = ["instance_id", "family", "method", "sense", "value", "triv",
               "status", "iters", "time_s"]


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.instance_id, r.family, r.method, r.sense,
            _num(r.value), _num(r.triv), r.status, r.iters,
            "%.6f" % r.time_s,
        ])
    return buf.getvalue()


def _num(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return ""
    return "%.12g" % v
