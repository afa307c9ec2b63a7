"""Pattern families: groups of exponent vectors linked by one convex model.

Construction follows the catalogue of sparsity methods: multilinear cubes,
chains along a common direction, shifted axis-parallel chains, the mixed
method H, truncated submonoids, images of base patterns under integer
matrices, expression-tree patterns, simplicial circuits, stabilized
term-sparsity partitions, shifted univariate blocks and the dense moment
block.  Families are pruned to inclusion-maximal members before use;
FAMILY_BUILDERS maps each method tag to its family builder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .polynomials import (
    Exponent,
    Polynomial,
    _exponent,
    _integer,
    _number,
    as_exponent,
    degrees_up_to,
    exp_add,
    exp_support,
    minkowski_sum,
    unit_exponent,
    zero_exponent,
)

CIRCUIT_TOL = 1e-10
PATTERN_CAP = 5000


class PatternError(ValueError):
    pass


class AffinelyDependent(PatternError):
    pass


class NotInRelativeInterior(PatternError):
    pass


class PatternTooLarge(PatternError):
    pass


@dataclass
class Pattern:
    """A finite exponent set with construction metadata for model building."""

    exponents: frozenset
    kind: str = "generic"
    meta: dict = field(default_factory=dict)
    shift: Exponent | None = None

    def __post_init__(self):
        exps = frozenset(map(as_exponent, self.exponents))
        if not exps:
            raise PatternError("pattern must be nonempty")
        if len(set(map(len, exps))) != 1:
            raise PatternError("pattern mixes exponent dimensions")
        object.__setattr__(self, "exponents", exps)
        if self.kind in ("circuit", "sdsos"):
            self._check_circuit()

    def _check_circuit(self):
        lams = self.meta.get("lambdas")
        gammas = self.meta.get("gammas")
        beta = self.meta.get("beta")
        if lams is None or gammas is None or beta is None:
            raise PatternError("circuit pattern requires beta/gammas/lambdas metadata")
        if any(l <= 0 for l in lams):
            raise PatternError("circuit lambdas must be strictly positive")
        if abs(sum(lams) - 1.0) > CIRCUIT_TOL:
            raise PatternError("circuit lambdas must sum to one")
        recon = np.sum([l * np.array(g, float) for l, g in zip(lams, gammas)], axis=0)
        if np.max(np.abs(recon - np.array(beta, float))) > CIRCUIT_TOL:
            raise PatternError("circuit lambdas do not reconstruct beta")

    @property
    def n(self) -> int:
        return len(next(iter(self.exponents)))

    def sorted_exponents(self) -> list:
        return sorted(self.exponents)

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"Pattern({self.kind}, {self.sorted_exponents()})"


def _built_pattern(exponents: frozenset, kind: str, meta: dict, shift=None) -> Pattern:
    """A pattern on exponents that a family builder made from validated ones.

    They are already nonempty int tuples of one length, so __post_init__,
    which would check them again, is skipped.
    """
    p = object.__new__(Pattern)
    p.exponents, p.kind, p.meta, p.shift = exponents, kind, meta, shift
    return p


class PatternFamily:
    """An ordered collection of patterns over a common dimension."""

    def __init__(self, patterns: Sequence[Pattern], n: int | None = None, kind: str = "custom"):
        self.patterns = list(patterns)
        if n is None:
            if not self.patterns:
                raise PatternError("empty family needs an explicit dimension")
            n = self.patterns[0].n
        self.n = n
        self.kind = kind
        for p in self.patterns:
            if p.n != self.n:
                raise PatternError("family mixes pattern dimensions")

    def union_support(self) -> frozenset:
        out = set()
        for p in self.patterns:
            out |= p.exponents
        return frozenset(out)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "patterns": [[list(a) for a in p.sorted_exponents()] for p in self.patterns],
            "meta": {
                "dimension": self.n,
                "pattern_kinds": [p.kind for p in self.patterns],
                "pattern_meta": [_meta_to_json(p.meta) for p in self.patterns],
                "shifts": [list(p.shift) if p.shift is not None else None
                           for p in self.patterns],
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PatternFamily":
        for key in ("kind", "patterns"):
            if key not in data:
                raise ValueError(f"pattern-family JSON missing field '{key}'")
        meta = data.get("meta", {})
        kinds = meta.get("pattern_kinds")
        metas = meta.get("pattern_meta")
        shifts = meta.get("shifts")
        patterns = []
        for idx, exps in enumerate(data["patterns"]):
            kind = kinds[idx] if kinds else "generic"
            pmeta = _meta_from_json(metas[idx]) if metas else {}
            shift = _exponent(shifts[idx]) if shifts and shifts[idx] is not None else None
            patterns.append(Pattern(frozenset(map(_exponent, exps)),
                                    kind=kind, meta=pmeta, shift=shift))
        n = meta.get("dimension")
        return cls(patterns, n=n if n is None else _integer(n), kind=data["kind"])


def _meta_to_json(meta: dict) -> dict:
    out = {}
    for k, v in meta.items():
        if isinstance(v, frozenset):
            out[k] = sorted([list(a) for a in v])
        elif isinstance(v, tuple):
            out[k] = [list(x) if isinstance(x, tuple) else x for x in v]
        else:
            out[k] = v
    return out


def _meta_from_json(meta: dict) -> dict:
    out = {}
    for k, v in meta.items():
        if k in ("gamma", "gammas"):
            # either one direction vector or a tuple of matrix columns
            if v and isinstance(v[0], list):
                out[k] = tuple(map(_exponent, v))
            else:
                out[k] = _exponent(v)
        elif k in ("beta", "base_alpha"):
            out[k] = _exponent(v)
        elif k == "basis":
            out[k] = tuple(map(_exponent, v))
        elif k == "lambdas":
            out[k] = tuple(map(_number, v))
        elif k == "base":
            out[k] = frozenset(map(_exponent, v))
        elif k in ("steps", "axis", "d"):
            out[k] = _integer(v)
        else:
            out[k] = v
    return out


def prune_inclusion_maximal(pats: list) -> list:
    """Drop every pattern whose exponent set is contained in another's.

    Duplicates keep their first occurrence; survivor order is stable. A
    pattern containing p holds each exponent of p, so only the holders of
    p's rarest exponent are compared with p.
    """
    holders: dict = {}  # exponent -> indices of the patterns that hold it
    for j, q in enumerate(pats):
        for a in q.exponents:
            holders.setdefault(a, []).append(j)
    keep = []
    for i, p in enumerate(pats):
        rarest = min(map(holders.__getitem__, p.exponents), key=len)
        if not any(p.exponents < pats[j].exponents or (j < i and p.exponents == pats[j].exponents)
                   for j in rarest):
            keep.append(p)
    return keep


def _check_cap(size: int, what: str, *args):
    """Raise if a pattern would be too large; what % args names it."""
    if size > PATTERN_CAP:
        raise PatternTooLarge(f"{what % args} would contain {size} exponents (cap {PATTERN_CAP})")


def _normalize_exponent_set(A: Iterable) -> list:
    exps = sorted({as_exponent(a) for a in A})
    if not exps:
        raise PatternError("exponent set must be nonempty")
    dims = {len(a) for a in exps}
    if len(dims) != 1:
        raise PatternError("exponent set mixes dimensions")
    return exps


def multilinear_cube(alpha: Exponent) -> frozenset:
    """The product set {0, alpha_1} x ... x {0, alpha_n}; zero factors collapse."""
    return frozenset(itertools.product(*[(0, a) if a else (0,) for a in alpha]))


def multilinear_family(A: Iterable) -> PatternFamily:
    """Method M: one multilinear cube per exponent of A, pruned."""
    exps = _normalize_exponent_set(A)
    n = len(exps[0])
    pats = []
    for alpha in exps:
        k = len(exp_support(alpha))
        _check_cap(1 << k, "multilinear cube of %s", alpha)
        pats.append(_built_pattern(multilinear_cube(alpha), "multilinear",
                                   {"base_alpha": alpha}))
    return PatternFamily(prune_inclusion_maximal(pats), n, kind="M")


def chain_pattern(gamma: Exponent, steps: int) -> Pattern:
    """The chain {0, gamma, ..., steps * gamma}."""
    pts = frozenset(tuple(k * g for g in gamma) for k in range(steps + 1))
    return Pattern(pts, kind="chain", meta={"gamma": gamma, "steps": steps})


def chain_family(A: Iterable) -> PatternFamily:
    """Method C: per alpha the chain along alpha/gcd(alpha) of even length."""
    exps = _normalize_exponent_set(A)
    n = len(exps[0])
    pats = []
    for alpha in exps:
        g = math.gcd(*alpha)
        if g == 0:
            continue
        gamma = tuple(k // g for k in alpha)
        steps = 2 * math.ceil(g / 2)
        pats.append(chain_pattern(gamma, steps))
    if not pats:
        pats = [Pattern(frozenset({zero_exponent(n)}), kind="generic")]
    return PatternFamily(prune_inclusion_maximal(pats), n, kind="C")


def shifted_chain_family(A: Iterable) -> PatternFamily:
    """Method S: axis-parallel chains through each alpha, shifted off the axis."""
    exps = _normalize_exponent_set(A)
    n = len(exps[0])
    pats = []
    for alpha in exps:
        for i in range(n):
            steps = 2 * math.ceil(alpha[i] / 2)
            eta = tuple(0 if j == i else alpha[j] for j in range(n))
            pts = frozenset(
                tuple(k if j == i else alpha[j] for j in range(n))
                for k in range(steps + 1)
            )
            pats.append(_built_pattern(pts, "shifted_chain",
                                       {"axis": i, "steps": steps}, shift=eta))
    return PatternFamily(prune_inclusion_maximal(pats), n, kind="S")


def h_family(A: Iterable) -> PatternFamily:
    """Method H: axis chains, the diagonal chain, growing cubes, plus method M."""
    exps = _normalize_exponent_set(A)
    n = len(exps[0])
    max_entry = max(max(a) for a in exps)
    d = math.ceil(max_entry / 2)
    pats = []
    if d == 0:
        # A = {0}: the minimal enclosing cube is trivial
        return PatternFamily([Pattern(frozenset({zero_exponent(n)}), kind="generic")],
                             n, kind="H")
    for i in range(n):
        pats.append(chain_pattern(unit_exponent(n, i), 2 * d))
    pats.append(chain_pattern((1,) * n, 2 * d))
    _check_cap(1 << n, "multilinear cube")
    for k in range(1, 2 * d + 1):
        pats.append(_built_pattern(multilinear_cube((k,) * n), "multilinear",
                                   {"base_alpha": (k,) * n}))
    pats.extend(multilinear_family(exps).patterns)
    return PatternFamily(prune_inclusion_maximal(pats), n, kind="H")


def mc_family(A: Iterable) -> PatternFamily:
    """Method MC: the union of methods M and C, pruned."""
    fam_m = multilinear_family(A)
    pats = fam_m.patterns + chain_family(A).patterns
    return PatternFamily(prune_inclusion_maximal(pats), fam_m.n, kind="MC")


def gamma_apply(columns: Sequence[Exponent], delta: Exponent) -> Exponent:
    """The image sum_j delta_j * columns[j] of a base exponent under Gamma."""
    img = zero_exponent(len(columns[0]))
    for j, mult in enumerate(delta):
        if mult:
            img = exp_add(img, tuple(mult * e for e in columns[j]))
    return img


def submonoid_pattern(columns: Sequence[Exponent], d: int) -> Pattern:
    """The image of all base exponents of degree <= 2d under the column matrix."""
    columns = tuple(as_exponent(c) for c in columns)
    pts = frozenset(gamma_apply(columns, delta) for delta in degrees_up_to(len(columns), 2 * d))
    return Pattern(pts, kind="submonoid", meta={"gamma": columns, "d": d})


def truncated_submonoid_family(A: Iterable) -> PatternFamily:
    """Method T: an even global submonoid plus per-exponent support submonoids."""
    exps = _normalize_exponent_set(A)
    n = len(exps[0])
    deg = max(sum(a) for a in exps)
    d_even = math.ceil(deg / 4)
    even_cols = tuple(unit_exponent(n, i, 2) for i in range(n))
    _check_cap(math.comb(n + 2 * d_even, n), "even submonoid pattern")
    base = submonoid_pattern(even_cols, d_even)
    pats = [base]
    d_supp = math.ceil(deg / 2)
    for alpha in exps:
        if alpha in base.exponents:
            continue
        supp = sorted(exp_support(alpha))
        if not supp:
            continue
        size = math.comb(len(supp) + 2 * d_supp, len(supp))
        _check_cap(size, "support submonoid of %s", alpha)
        cols = tuple(unit_exponent(n, i) for i in supp)
        pats.append(submonoid_pattern(cols, d_supp))
    return PatternFamily(prune_inclusion_maximal(pats), n, kind="T")


def gamma_image(Gamma, base: Iterable) -> Pattern:
    """Map a base pattern in k variables through an n-by-k integer matrix."""
    G = np.asarray(Gamma, dtype=int)
    if G.ndim != 2:
        raise PatternError("Gamma must be a matrix")
    n, k = G.shape
    if np.any(G < 0):
        raise PatternError("Gamma entries must be nonnegative integers")
    if np.linalg.matrix_rank(G) < k:
        raise PatternError("Gamma must have full column rank")
    base_exps = _normalize_exponent_set(base)
    if len(base_exps[0]) != k:
        raise PatternError("base pattern dimension must match Gamma columns")
    pts = frozenset(tuple(int(v) for v in G @ np.array(a)) for a in base_exps)
    columns = tuple(tuple(int(v) for v in G[:, j]) for j in range(k))
    meta = {"gamma": columns, "base": frozenset(base_exps)}
    # record the half-degree when the base is a full simplex of even degree
    degs = sorted(sum(a) for a in base_exps)
    full = degrees_up_to(k, degs[-1])
    if degs[-1] % 2 == 0 and sorted(base_exps) == full:
        meta["d"] = degs[-1] // 2
    return Pattern(pts, kind="submonoid", meta=meta)


def expression_tree_family(f: Polynomial) -> PatternFamily:
    """Per-monomial patterns from flat product nodes and power nodes."""
    if f.is_zero() or f.support() == {zero_exponent(f.n)}:
        raise PatternError("expression trees need a nonconstant polynomial")
    n = f.n
    pats = []
    for alpha in sorted(f.support()):
        factors = [(i, alpha[i]) for i in range(n) if alpha[i]]
        if len(factors) >= 2:
            pts = {alpha} | {unit_exponent(n, i, k) for i, k in factors}
            pats.append(Pattern(frozenset(pts), kind="multilinear",
                                meta={"base_alpha": alpha}))
        for i, k in factors:
            if k >= 2:
                pts = frozenset({unit_exponent(n, i, k), unit_exponent(n, i)})
                pats.append(Pattern(pts, kind="generic"))
    if not pats:
        raise PatternError("no internal tree nodes; polynomial is already linear")
    return PatternFamily(prune_inclusion_maximal(pats), n, kind="tree")


def make_circuit(beta, gammas, kind: str = "circuit") -> Pattern:
    """Circuit {beta, gamma(0..k)} with beta in the relative interior.

    Solves the barycentric system for the weights; the vertices must be
    affinely independent and every weight strictly positive.
    """
    beta = as_exponent(beta)
    gam = [as_exponent(g) for g in gammas]
    n = len(beta)
    if any(len(g) != n for g in gam):
        raise PatternError("circuit dimension mismatch")
    M = np.vstack([np.array(gam, dtype=float).T, np.ones(len(gam))])
    if np.linalg.matrix_rank(M) < len(gam):
        raise AffinelyDependent(f"gammas {gam} are affinely dependent")
    rhs = np.concatenate([np.array(beta, dtype=float), [1.0]])
    lam, residual, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    if np.max(np.abs(M @ lam - rhs)) > CIRCUIT_TOL:
        raise NotInRelativeInterior(f"{beta} is outside the affine hull of {gam}")
    if np.any(lam <= CIRCUIT_TOL):
        raise NotInRelativeInterior(f"{beta} is not interior to conv{gam}")
    if abs(lam.sum() - 1.0) > CIRCUIT_TOL:
        raise NotInRelativeInterior("barycentric weights do not sum to one")
    return Pattern(
        frozenset([beta, *gam]),
        kind=kind,
        meta={"beta": beta, "gammas": tuple(gam), "lambdas": tuple(float(l) for l in lam)},
    )


def make_sdsos(alpha, beta) -> Pattern:
    """SDSOS pair: the circuit {2a, a+b, 2b} with weights (1/2, 1/2)."""
    alpha = as_exponent(alpha)
    beta = as_exponent(beta)
    if alpha == beta:
        raise PatternError("sdsos pair needs distinct exponents")
    mid = exp_add(alpha, beta)
    two_a = tuple(2 * e for e in alpha)
    two_b = tuple(2 * e for e in beta)
    return make_circuit(mid, [two_a, two_b], kind="sdsos")


def tssos_partition(A: Iterable, B: Iterable) -> list:
    """Stabilized connected-component partition of the monomial basis B.

    Starting from S0 = A union 2B, nodes of B are joined whenever their sum
    lies in the current set; sums over connected pairs (self-pairs included)
    form the next set.  Stops when the partition repeats.
    """
    A_exps = {as_exponent(a) for a in A}
    B_exps = _normalize_exponent_set(B)
    B_set = set(B_exps)
    # a is in B + B when a - b is in B for some b in B
    for a in A_exps:
        if not any(tuple(x - y for x, y in zip(a, b, strict=True)) in B_set for b in B_exps):
            raise PatternError("tssos_partition requires A to be a subset of B+B")
    S = A_exps | {tuple(2 * e for e in b) for b in B_exps}
    m = len(B_exps)
    prev_blocks = None
    for _ in range(m + 1):
        parent = list(range(m))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(m):
            for j in range(i, m):
                if exp_add(B_exps[i], B_exps[j]) in S:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        groups: dict = {}
        for i in range(m):
            groups.setdefault(find(i), []).append(B_exps[i])
        blocks = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
        if blocks == prev_blocks:
            break
        prev_blocks = blocks
        S = {exp_add(a, b) for g in blocks for a in g for b in g}
    return [frozenset(g) for g in prev_blocks]


def sos_block_pattern(basis: Iterable, shift: Exponent | None = None) -> Pattern:
    """The moment block on a monomial basis: exponents B + B, shifted by x^shift.

    The basis is stored sorted; it indexes the block's rows and columns.
    """
    B = tuple(sorted(as_exponent(b) for b in basis))
    pts = minkowski_sum(B, B)
    if shift is not None:
        pts = frozenset(exp_add(a, shift) for a in pts)
    return Pattern(pts, kind="sos_block", meta={"basis": B}, shift=shift)


def tssos_family(A: Iterable) -> PatternFamily:
    """Term sparsity: one SOS block per stabilized TSSOS block of the half-degree basis.

    The partition starts from A with the constant 0 added. A basis above
    PATTERN_CAP is refused before the partition, whose pair loop is
    quadratic in the basis size.
    """
    exps = _normalize_exponent_set(A)
    n = len(exps[0])
    d = math.ceil(max(sum(a) for a in exps) / 2)
    _check_cap(math.comb(n + d, n), "TSSOS half-degree basis")
    B = degrees_up_to(n, d)
    blocks = tssos_partition(set(exps) | {zero_exponent(n)}, B)
    return PatternFamily([sos_block_pattern(b) for b in blocks], n, kind="tssos-sos")


def dense_sos_family(n: int, d: int) -> PatternFamily:
    """The single dense moment block on the degree-d basis."""
    return PatternFamily([sos_block_pattern(degrees_up_to(n, d))], n, kind="dense-sos")


def univariate_sparse_family(A: Iterable) -> PatternFamily:
    """Shifted univariate blocks that are exact for sparse minimization on R_+.

    A holds exponents (ints or 1-tuples); the constant 0 is always added.
    """
    exps = {(a,) if isinstance(a, int) else as_exponent(a) for a in A}
    exps = _normalize_exponent_set(exps)
    if len(exps[0]) != 1:
        raise PatternError("univariate sparse family needs one variable")
    vals = sorted({a[0] for a in exps} | {0})
    if len(vals) % 2 == 0:
        raise PatternError(f"exponent set must have odd size, got {len(vals)}")
    k = (len(vals) - 1) // 2
    d = vals[-1]
    if d <= 2 * k:
        raise PatternError(f"max degree {d} must exceed twice the half-count {k}")
    basis = [(j,) for j in range(k + 1)]
    pats = [sos_block_pattern(basis, shift=(i,)) for i in range(d - 2 * k + 1)]
    return PatternFamily(pats, 1, kind="univariate-sparse")


FAMILY_BUILDERS = {
    "M": multilinear_family,
    "C": chain_family,
    "S": shifted_chain_family,
    "H": h_family,
    "MC": mc_family,
    "T": truncated_submonoid_family,
    "tssos-sos": tssos_family,
    "univariate-sparse": univariate_sparse_family,
}


def build_family(method: str, A: Iterable) -> PatternFamily:
    """The family of a method tag on the exponent set A; the one map from tag to builder."""
    if method not in FAMILY_BUILDERS:
        raise PatternError(f"unknown pattern method {method!r}")
    return FAMILY_BUILDERS[method](A)
