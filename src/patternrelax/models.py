"""Per-pattern convex models on shared monomial variables.

model_for_pattern routes each pattern to one builder: box-vertex mixtures or
bound-factor product rows (McCormick's) for multilinear patterns, moment and
localizer LMIs for chains and submonoids, shifted (homogenized) models,
sparse SOS moment blocks, and geometric-mean-cone memberships for circuits.  Every builder
emits a MomentModel over monomial variables v_alpha: linear rows (which
may use model-local auxiliary scalars) and LMI blocks, both in the
program's entry format with exponents for columns and the zero exponent for
v_0 = 1, and geometric-mean-cone memberships, so assembly only renames
exponents to columns.  A vertex or circuit model is one certificate piece,
whose payload (vertex table or circuit data) lets the certificate module
re-derive and verify it; the rows and LMI blocks of the other models are
one piece each, with their factor lists.  Lifted points are checked on the
assembled program (ConicProgram.lift_point and max_violation), not per
model.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .polynomials import (
    COEFF_DROP_TOL,
    Box,
    Exponent,
    Polynomial,
    as_exponent,
    degrees_up_to,
    exp_add,
    exp_support,
    monomial_range,
    power_range,
    product_of_factors,
    unit_exponent,
    zero_exponent,
)
from .patterns import Pattern, gamma_apply
from .program import Piece

VERTEX_HARD_CAP = 12


class BuilderError(ValueError):
    pass


class PatternTooWide(BuilderError):
    pass


class SupportOverlap(BuilderError):
    pass


# ---------------------------------------------------------------------------
# model containers


@dataclass(slots=True)
class Row:
    """The row sum_alpha coeffs[alpha] v_alpha + sum_i aux[i] t_i >= 0 (or == 0).

    As in an LMIBlock, the zero exponent stands for v_0 = 1; t_i is the
    model's auxiliary i.
    """

    coeffs: dict  # exponent -> float
    sense: str = ">="  # ">=" or "=="
    factors: tuple | None = None  # origin of a provably nonnegative row
    aux: dict | None = None  # auxiliary index -> float


@dataclass
class LMIBlock:
    """The block sum_alpha v_alpha F_alpha >= 0, in PSDBlockData's entry format.

    Each entry (alpha, i, j) -> c with i <= j sets F_alpha[i, j] =
    F_alpha[j, i] = c; the zero exponent stands for v_0 = 1.
    """

    size: int
    entries: dict  # (alpha, i, j) -> float, i <= j
    basis: tuple | None = None  # x-monomials indexing rows/cols (Gram basis)
    multiplier_factors: tuple = ()  # certificate multiplier g = prod(factors)


@dataclass
class GMCRecord:
    beta: Exponent
    gammas: tuple
    lambdas: tuple
    sign_mode: str  # "even": 0 <= v_beta <= prod; "odd": |v_beta| <= prod


@dataclass
class MomentModel:
    """One pattern's constraints; their duals form the pattern's certificate.

    A model with a piece gives all its rows and GMC records to that one
    piece; a model without one gives each row its own "linear" piece.  Each
    LMI block is its own "sos" piece.
    """

    n: int
    variables: set = field(default_factory=set)
    aux_count: int = 0
    rows: list = field(default_factory=list)
    lmis: list = field(default_factory=list)
    gmcs: list = field(default_factory=list)
    piece: Piece | None = None
    aux_lift: Callable | None = None  # x -> list of aux values

    def add_row(self, coeffs, sense=">=", factors=None):
        self.variables.update(a for a in coeffs if any(a))  # v_0 is no variable
        self.rows.append(Row(coeffs, sense, tuple(factors) if factors else None))

    def add_lmi(self, size, entries, basis=None, multiplier_factors=()):
        self.variables.update(a for a, _, _ in entries if any(a))  # v_0 is no variable
        self.lmis.append(LMIBlock(size, entries, basis, tuple(multiplier_factors)))

    def add_gmc(self, beta, gammas, lambdas, sign_mode):
        self.variables.add(beta)
        self.variables.update(gammas)
        self.gmcs.append(GMCRecord(beta, tuple(gammas), tuple(lambdas), sign_mode))

    def dump(self) -> str:
        """Human-readable listing of all constraints with exponent labels."""
        lines = [f"moment model on {len(self.variables)} monomial variables, "
                 f"{self.aux_count} auxiliaries"]
        for row in self.rows:
            op = ">= 0" if row.sense == ">=" else "== 0"
            lines.append(f"  row:  {_form_text(row.coeffs, row.aux)} {op}")
        for block in self.lmis:
            m = block.size
            lines.append(f"  lmi ({m}x{m}):")
            cells = [[{} for _ in range(m)] for _ in range(m)]
            for (a, i, j), c in block.entries.items():
                cells[i][j][a] = cells[j][i][a] = c
            for row in cells:
                lines.append("    [ " + " | ".join(map(_form_text, row)) + " ]")
        for rec in self.gmcs:
            rel = "0 <= v <= prod" if rec.sign_mode == "even" else "|v| <= prod"
            lines.append(
                f"  gmc:  v{rec.beta} vs prod of v{list(rec.gammas)}^{list(rec.lambdas)} ({rel})"
            )
        return "\n".join(lines)


def _form_text(coeffs: dict, aux: dict | None = None) -> str:
    """A row or an LMI cell as text: v_0's coefficient as a bare number, then
    each v_alpha and t_i term."""
    bits = [f"{c:+g}*v{a}" if any(a) else f"{c:g}" for a, c in sorted(coeffs.items())]
    bits += [f"{c:+g}*t{i}" for i, c in sorted((aux or {}).items())]
    return " ".join(bits) or "0"


# ---------------------------------------------------------------------------
# builders


def _pattern_base(P: Pattern) -> Exponent:
    base = P.meta.get("base_alpha")
    if base is None:
        base = tuple(max(a[i] for a in P.exponents) for i in range(P.n))
    return base


def _coordinate_ranges(base: Exponent, box: Box) -> tuple:
    """Support coordinates of base and the exact range (lo, hi) of each x_i^{base_i}."""
    supp = [i for i, k in enumerate(base) if k]
    ranges = [power_range(box.lower[i], box.upper[i], base[i]) for i in supp]
    for i, (lo, hi) in zip(supp, ranges):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BuilderError(
                f"vertex model needs finite bounds; x_{i}^{base[i]} is unbounded"
            )
    return supp, ranges


def _vertex_table(ranges: tuple, orders: tuple, zero: Exponent) -> tuple:
    """The vertex table of a vertex model: its vertices, its normalization row,
    the aux dict of each mixture row and its rows lambda_j >= 0.

    ranges holds the (lo, hi) range of each support coordinate's power,
    orders, for each nonzero exponent of the pattern in sorted order, the
    positions of its support coordinates in the order of exp_support, and
    zero the zero exponent, v_0's key in the normalization row: the table is
    a function of the three alone, so models with equal ones share it. Rows
    and dicts are not changed once built.
    """
    vertices = tuple(itertools.product(*ranges))
    count = len(vertices)
    # mixture rows: v_beta - sum_p lambda_p * m_beta(p) = 0; the beta = 0 row
    # is the normalization sum_p lambda_p = 1. -m_beta at every vertex is the
    # product of the columns of beta's support coordinates, the first one
    # negated, in the order of exp_support(beta): that order fixes the
    # rounding, and negating a factor negates the rounded product exactly
    normalization = Row({zero: -1.0}, "==", aux=dict.fromkeys(range(count), 1.0))
    columns = list(zip(*vertices))  # support position -> its value at every vertex
    negated = [tuple(map(operator.neg, col)) for col in columns]
    auxes = []
    for first, *rest in orders:
        values = negated[first]
        for i in rest:
            values = list(map(operator.mul, values, columns[i]))
        auxes.append({j: v for j, v in enumerate(values) if abs(v) > COEFF_DROP_TOL})
    nonnegative = tuple(Row({}, aux={j: 1.0}) for j in range(count))
    return vertices, normalization, tuple(auxes), nonnegative


def build_multilinear_model(P: Pattern, box: Box, tables: dict | None = None) -> MomentModel:
    """Exact polytope model of a multilinear pattern via box-vertex mixtures.

    tables, when given, holds the vertex tables built so far, by key: models
    built with one dict share equal tables, and the model is the same as
    without it.
    """
    base = _pattern_base(P)
    if not all(set(col) <= {0, b} for col, b in zip(zip(*P.exponents), base)):
        raise BuilderError("pattern is not contained in its multilinear cube")
    supp, ranges = _coordinate_ranges(base, box)
    k = len(supp)
    if k > VERTEX_HARD_CAP:
        raise PatternTooWide(f"multilinear pattern touches {k} coordinates (cap {VERTEX_HARD_CAP})")
    pat_exps = sorted(P.exponents)
    betas = [beta for beta in pat_exps if any(beta)]
    position = {i: j for j, i in enumerate(supp)}
    # power_range gives +0.0 for a zero end, so equal keys have bitwise equal
    # ranges and hence bitwise equal tables
    key = (tuple(ranges),
           tuple(tuple(map(position.__getitem__, exp_support(beta))) for beta in betas),
           zero_exponent(P.n))
    if tables is None:
        table = _vertex_table(*key)
    elif (table := tables.get(key)) is None:
        table = tables[key] = _vertex_table(*key)
    vertices, normalization, auxes, nonnegative = table
    model = MomentModel(P.n, set(betas), len(vertices))
    mixture = [Row({beta: 1.0}, "==", aux=aux) for beta, aux in zip(betas, auxes)]
    model.rows = [normalization, *mixture, *nonnegative]
    model.piece = Piece(
        "vertex",
        {
            "base_alpha": base,
            "support": tuple(supp),
            "vertices": vertices,
            "pattern": tuple(pat_exps),
        },
    )

    def lift(x, supp=supp, ranges=ranges, base=base, vertices=vertices):
        # each coordinate's (low, high) vertex weight, 0.5 each on a point range
        weights = []
        for i, (lo, hi) in zip(supp, ranges):
            y = float(x[i]) ** base[i]
            weights.append(((hi - y) / (hi - lo), (y - lo) / (hi - lo))
                           if hi > lo else (0.5, 0.5))
        vals = []
        for p in vertices:
            lam = 1.0
            for v, (_, hi), (w_lo, w_hi) in zip(p, ranges, weights):
                lam *= w_hi if v == hi else w_lo
            vals.append(lam)
        return vals

    model.aux_lift = lift
    return model


def add_bound_factor_rows(model: MomentModel, gammas: tuple, box: Box):
    """Add the rows L(prod_i f_i) >= 0, one for each choice of one finite bound
    factor f_i in {x^gamma_i - lo_i, hi_i - x^gamma_i} of each gamma_i.

    The gammas share no variable, so each product is multilinear in the
    v_gamma: the RLT rows of Sherali and Adams, McCormick's for two factors.
    Each factor is s * y + c with s = +-1, multiplied into the terms one at a
    time from v_0's 1.0 in the order of the gammas, which fixes the rounding.
    Coefficients of magnitude at most COEFF_DROP_TOL are dropped, but v_0's
    is kept if nonzero: a bound's constant is no noise however small, and
    without it an upper-bound row could cut off feasible points.
    """
    zero = zero_exponent(model.n)
    choices = []
    for g in gammas:
        rng = monomial_range(g, box)
        choices.append([(s, c, (name, g)) for s, c, name in (
            (1.0, -rng.lo, "mon_minus_lo"), (-1.0, rng.hi, "up_minus_mon")) if math.isfinite(c)])
    for choice in itertools.product(*choices):
        terms = {zero: 1.0}
        for g, (s, c, _) in zip(gammas, choice):
            terms = {key: v for a, t in terms.items()
                     for key, v in ((exp_add(a, g), t * s), (a, t * c))}
        model.add_row({a: c for a, c in terms.items()
                       if abs(c) > COEFF_DROP_TOL or (c and a == zero)},
                      factors=[factor for _, _, factor in choice])


def build_mccormick_model(P: Pattern, box: Box) -> MomentModel:
    """The four bound-factor products for a two-coordinate square, in v."""
    base = _pattern_base(P)
    supp, _ = _coordinate_ranges(base, box)
    if len(supp) != 2:
        raise BuilderError("McCormick model needs exactly two active coordinates")
    model = MomentModel(P.n)
    add_bound_factor_rows(model, tuple(unit_exponent(P.n, i, base[i]) for i in supp), box)
    return model


def _as_columns(Gamma) -> tuple:
    G = np.asarray(Gamma, dtype=int)
    if G.ndim == 1:
        G = G.reshape(-1, 1)
    return tuple(tuple(int(v) for v in G[:, j]) for j in range(G.shape[1]))


def _moment_block(model: MomentModel, basis: tuple, h: Polynomial, factors: tuple):
    """Add the block [h x^(a+b)]_{a,b in basis} with each x^alpha read as v_alpha.

    h is the block's multiplier, prod(factors); a 1x1 block becomes a row,
    whose coefficients are its entries.
    """
    terms = list(h.terms.items())
    m = len(basis)
    entries = {}
    for i, a in enumerate(basis):
        for j in range(i, m):
            s = exp_add(a, basis[j])
            for g, c in terms:
                entries[exp_add(g, s), i, j] = c
    if m == 1:
        b = basis[0]
        if sum(b):
            factors = factors + (("monomial", exp_add(b, b)),)
        model.add_row({a: c for (a, _, _), c in entries.items()}, factors=factors or None)
    else:
        model.add_lmi(m, entries, basis=basis, multiplier_factors=factors)


def build_lasserre_model(Gamma, d: int, box: Box) -> MomentModel:
    """Moment LMI plus quadratic localizers on the image of a degree simplex.

    The pattern is Gamma * N^k_{2d}; the moment matrix is indexed by the
    Gamma-image of the degree-d base simplex and each column gets the
    localizer (x^{gamma(i)} - l)(u - x^{gamma(i)}), with one-sided boxes
    dropping the missing factor.  Gamma is linear, so the entry exponents are
    sums of basis images.
    """
    columns = _as_columns(Gamma)
    G = np.array(columns, dtype=int).T
    k = len(columns)
    if np.linalg.matrix_rank(G) < k:
        raise BuilderError("Gamma must have full column rank")
    n = len(columns[0])
    if box.n != n:
        raise BuilderError("box dimension mismatch")
    model = MomentModel(n)
    basis = tuple(gamma_apply(columns, delta) for delta in degrees_up_to(k, d))
    _moment_block(model, basis, Polynomial.constant(n, 1.0), ())
    if d >= 1:
        loc_basis = tuple(gamma_apply(columns, delta) for delta in degrees_up_to(k, d - 1))
        for j in range(k):
            gamma_j = columns[j]
            rng = monomial_range(gamma_j, box)
            factors = []
            if math.isfinite(rng.lo):
                factors.append(("mon_minus_lo", gamma_j))
            if math.isfinite(rng.hi):
                factors.append(("up_minus_mon", gamma_j))
            if not factors:
                continue
            _moment_block(model, loc_basis, product_of_factors(factors, box, n),
                          tuple(factors))
    return model


def build_shifted_model(eta: Exponent, base: MomentModel, box: Box) -> MomentModel:
    """Homogenize a base model by v_eta and shift every monomial index by eta.

    Requires x^eta to be variable-independent from every base monomial and
    nonnegative on the box (the conic-hull argument needs t = x^eta >= 0).
    Only rows and moment blocks are shifted: a base with a piece, GMC
    records or auxiliaries is rejected.
    """
    eta = as_exponent(eta)
    if sum(eta) == 0:
        return base
    if base.piece is not None or base.gmcs or base.aux_count:
        raise BuilderError("only a base of rows and moment blocks can be shifted")
    eta_supp = exp_support(eta)
    for alpha in base.variables:
        if exp_support(alpha) & eta_supp:
            raise SupportOverlap(
                f"shift {eta} shares variables with base monomial {alpha}"
            )
    rng = monomial_range(eta, box)
    if rng.lo < 0:
        raise BuilderError(f"shift monomial {eta} can be negative on the box")
    model = MomentModel(base.n)
    for row in base.rows:
        factors = row.factors
        if factors is not None:
            factors = factors + (("monomial", eta),)
        # eta shares no variable with the base monomials, so v_0's term
        # becomes a new key, v_eta's, unless it is noise
        coeffs = {exp_add(a, eta): c for a, c in row.coeffs.items()
                  if any(a) or abs(c) > COEFF_DROP_TOL}
        model.add_row(coeffs, row.sense, factors)
    for block in base.lmis:
        entries = {(exp_add(a, eta), i, j): c for (a, i, j), c in block.entries.items()}
        model.add_lmi(block.size, entries, basis=block.basis,
                      multiplier_factors=block.multiplier_factors + (("monomial", eta),))
    add_bound_factor_rows(model, (eta,), box)
    return model


def build_circuit_model(P: Pattern, box: Box) -> MomentModel:
    """Geometric-mean-cone membership for a simplicial circuit, on any box.

    The box's lower bounds decide the sign rule, coordinate by coordinate:
    an outer exponent must be even in each coordinate whose lower bound is
    below 0, and the inner one counts as even where each of its odd
    coordinates has a lower bound >= 0.
    """
    if P.kind not in ("circuit", "sdsos"):
        raise BuilderError("pattern has no circuit metadata")
    beta = P.meta["beta"]
    gammas = P.meta["gammas"]
    lambdas = P.meta["lambdas"]
    if any(e % 2 and lo < 0.0 for g in gammas for e, lo in zip(g, box.lower)):
        raise BuilderError("outer circuit exponents must be even where x can be negative")
    even = all(e % 2 == 0 or lo >= 0.0 for e, lo in zip(beta, box.lower))
    model = MomentModel(P.n)
    for g in gammas:
        model.add_row({g: 1.0}, factors=(("monomial", g),))
    if even:
        model.add_row({beta: 1.0}, factors=(("monomial", beta),))
    model.add_gmc(beta, gammas, lambdas, "even" if even else "odd")
    model.piece = Piece("circuit", {"beta": beta, "gammas": gammas, "lambdas": lambdas})
    return model


# ---------------------------------------------------------------------------
# policy routing


@dataclass
class ModelPolicy:
    """Per-pattern-kind choice of moment-body model.

    A multilinear pattern on k coordinates gets the vertex model when k == 1
    or k <= vertex_cap; otherwise its bound-factor product rows: McCormick's
    four for k == 2, the four of each coordinate pair (pairwise McCormick)
    for k >= 3.  vertex_cap=1 thus gives McCormick for every two-coordinate
    pattern.
    """

    vertex_cap: int = 6

    def __post_init__(self):
        if self.vertex_cap > VERTEX_HARD_CAP:
            raise ValueError(f"vertex cap above the hard cap {VERTEX_HARD_CAP}")


def _pairwise_mccormick(P: Pattern, box: Box) -> MomentModel:
    """McCormick rows of every coordinate pair, then each exponent's bound rows."""
    base = _pattern_base(P)
    supp, _ = _coordinate_ranges(base, box)
    model = MomentModel(P.n)
    for pair in itertools.combinations(supp, 2):
        add_bound_factor_rows(model, tuple(unit_exponent(P.n, i, base[i]) for i in pair), box)
    for alpha in sorted(P.exponents):
        if sum(alpha):
            add_bound_factor_rows(model, (alpha,), box)
    return model


def _collinear_direction(P: Pattern):
    nonzero = [a for a in P.exponents if sum(a)]
    if not nonzero:
        return None
    g0 = nonzero[0]
    gcd0 = math.gcd(*g0) if len(g0) > 1 else g0[0]
    gamma = tuple(e // gcd0 for e in g0)
    mults = []
    for a in nonzero:
        ks = {a[i] // gamma[i] for i in range(len(a)) if gamma[i]}
        k = ks.pop() if len(ks) == 1 else None
        if k is None or tuple(k * e for e in gamma) != a:
            return None
        mults.append(k)
    return gamma, max(mults)


# The vertex tables of the shared_vertex_tables block in progress, or None.
# model_for_pattern reads them here rather than take them as an argument, so
# that it keeps the signature a caller may wrap (perfbench/spans.py times it).
_vertex_tables: ContextVar[dict | None] = ContextVar("vertex_tables", default=None)


@contextmanager
def shared_vertex_tables():
    """Vertex models built by model_for_pattern in the block share equal
    vertex tables; the tables are dropped when the block ends."""
    token = _vertex_tables.set({})
    try:
        yield
    finally:
        _vertex_tables.reset(token)


def model_for_pattern(P: Pattern, box: Box, policy: ModelPolicy) -> MomentModel:
    """Route one pattern to its convex model per the policy."""
    kind = P.kind
    if kind == "multilinear":
        base = _pattern_base(P)
        k = len(exp_support(base))
        if k == 0:
            return MomentModel(P.n)
        if k == 1 or k <= policy.vertex_cap:
            return build_multilinear_model(P, box, _vertex_tables.get())
        if k == 2:
            return build_mccormick_model(P, box)
        return _pairwise_mccormick(P, box)
    if kind == "chain":
        return build_lasserre_model(P.meta["gamma"], math.ceil(P.meta["steps"] / 2), box)
    if kind == "shifted_chain":
        steps = P.meta["steps"]
        if steps == 0:
            base = MomentModel(P.n)
        else:
            base = build_lasserre_model(unit_exponent(P.n, P.meta["axis"]), steps // 2, box)
        return build_shifted_model(P.shift or zero_exponent(P.n), base, box)
    if kind == "submonoid":
        gamma = P.meta.get("gamma")
        d = P.meta.get("d")
        if gamma is not None and d is not None:
            return build_lasserre_model(np.array(gamma, dtype=int).T, d, box)
        return _generic_model(P, box, policy)
    if kind in ("circuit", "sdsos"):
        return build_circuit_model(P, box)
    if kind == "sos_block":
        eta = P.shift if P.shift is not None else zero_exponent(P.n)
        # the block's certificate multiplier is x^eta, so it must be >= 0
        if monomial_range(eta, box).lo < 0:
            raise BuilderError(f"shift monomial {eta} can be negative on the box")
        model = MomentModel(P.n)
        factors = (("monomial", eta),) if sum(eta) else ()
        _moment_block(model, tuple(sorted(P.meta["basis"])), Polynomial.monomial(eta), factors)
        return model
    return _generic_model(P, box, policy)


def _generic_model(P: Pattern, box: Box, policy: ModelPolicy) -> MomentModel:
    col = _collinear_direction(P)
    if col is not None:
        gamma, top = col
        return build_lasserre_model(gamma, math.ceil(top / 2), box)
    base = _pattern_base(P)
    if all(a[i] in (0, base[i]) for a in P.exponents for i in range(P.n)):
        return model_for_pattern(
            Pattern(P.exponents, kind="multilinear", meta={"base_alpha": base}),
            box, policy)
    supp = sorted(set().union(*(exp_support(a) for a in P.exponents)))
    d = math.ceil(max(sum(a) for a in P.exponents) / 2)
    cols = [unit_exponent(P.n, i) for i in supp]
    if math.comb(len(supp) + d, len(supp)) <= 300:
        return build_lasserre_model(np.array(cols, dtype=int).T, d, box)
    model = MomentModel(P.n)
    for alpha in sorted(P.exponents):
        if sum(alpha):
            add_bound_factor_rows(model, (alpha,), box)
    return model
