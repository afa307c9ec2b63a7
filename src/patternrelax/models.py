"""Per-pattern convex models on shared monomial variables.

Every builder emits a MomentModel: linear rows, LMI blocks with affine
entries, and geometric-mean-cone memberships, all over monomial variables
v_alpha plus model-local auxiliary scalars.  A model also records enough
provenance (factor lists, vertex tables, circuit data) for the certificate
module to re-derive and verify each dual piece independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .polynomials import (
    Box,
    Exponent,
    Interval,
    LinearForm,
    Polynomial,
    as_exponent,
    degrees_up_to,
    exp_add,
    exp_support,
    linearize,
    monomial_range,
    unit_exponent,
    zero_exponent,
)
from .patterns import Pattern, PatternError

VERTEX_HARD_CAP = 12


class BuilderError(ValueError):
    pass


class PatternTooWide(BuilderError):
    pass


class SupportOverlap(BuilderError):
    pass


# ---------------------------------------------------------------------------
# factor descriptors: primitive data from which a verifier can re-expand the
# nonnegative polynomial behind a row or LMI multiplier with poly-core only


def factor_polynomial(factor, box: Box, n: int) -> Polynomial:
    kind = factor[0]
    if kind in ("affine", "poly"):
        return factor[1]
    if kind == "mon_minus_lo":
        gamma = factor[1]
        lo = monomial_range(gamma, box).lo
        if not math.isfinite(lo):
            raise BuilderError(f"monomial {gamma} unbounded below on the box")
        return Polynomial.monomial(gamma) - lo
    if kind == "up_minus_mon":
        gamma = factor[1]
        hi = monomial_range(gamma, box).hi
        if not math.isfinite(hi):
            raise BuilderError(f"monomial {gamma} unbounded above on the box")
        return Polynomial.constant(n, hi) - Polynomial.monomial(gamma)
    if kind == "monomial":
        return Polynomial.monomial(factor[1])
    raise BuilderError(f"unknown factor kind {kind!r}")


def factor_min_on_box(factor, box: Box, n: int) -> float:
    """A certified lower bound of the factor over the box."""
    kind = factor[0]
    if kind in ("mon_minus_lo", "up_minus_mon"):
        return 0.0
    if kind == "monomial":
        return monomial_range(factor[1], box).lo
    if kind == "poly":
        raise BuilderError("nonnegativity of a general multiplier is not certifiable")
    if kind == "affine":
        p = factor[1]
        total = p.coefficient(zero_exponent(n))
        for alpha, c in p.terms.items():
            if sum(alpha) == 0:
                continue
            if sum(alpha) != 1:
                raise BuilderError("affine factor has degree > 1")
            i = next(j for j, k in enumerate(alpha) if k)
            total += min(c * box.lower[i], c * box.upper[i])
        return total
    raise BuilderError(f"unknown factor kind {kind!r}")


def product_of_factors(factors, box: Box, n: int) -> Polynomial:
    p = Polynomial.constant(n, 1.0)
    for f in factors:
        p = p * factor_polynomial(f, box, n)
    return p


# ---------------------------------------------------------------------------
# model containers


@dataclass
class Row:
    form: LinearForm
    sense: str = ">="  # ">=" (form >= 0) or "==" (form == 0)
    factors: tuple | None = None  # origin of a provably nonnegative row
    group: int | None = None


@dataclass
class LMIBlock:
    entries: list  # list of list of LinearForm, symmetric
    basis: tuple | None = None  # x-monomials indexing rows/cols (Gram basis)
    multiplier_factors: tuple = ()  # certificate multiplier g = prod(factors)
    group: int | None = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def canonical_key(self):
        return tuple(
            tuple(e.canonical_key() for e in row_entries) for row_entries in self.entries
        )


@dataclass
class GMCRecord:
    beta: Exponent
    gammas: tuple
    lambdas: tuple
    sign_mode: str  # "even": 0 <= v_beta <= prod; "odd": |v_beta| <= prod
    group: int | None = None


@dataclass
class GroupInfo:
    kind: str  # "vertex" or "circuit"
    payload: dict


@dataclass
class MomentModel:
    n: int
    variables: set = field(default_factory=set)
    aux_count: int = 0
    rows: list = field(default_factory=list)
    lmis: list = field(default_factory=list)
    gmcs: list = field(default_factory=list)
    groups: dict = field(default_factory=dict)  # group id -> GroupInfo
    aux_lift: Callable | None = None  # x -> list of aux values

    def note_form(self, form: LinearForm):
        self.variables.update(form.coeffs)

    def add_row(self, form, sense=">=", factors=None, group=None):
        self.note_form(form)
        self.rows.append(Row(form, sense, tuple(factors) if factors else None, group))

    def add_lmi(self, entries, basis=None, multiplier_factors=(), group=None):
        for row_entries in entries:
            for e in row_entries:
                self.note_form(e)
        self.lmis.append(LMIBlock(entries, basis, tuple(multiplier_factors), group))

    def add_gmc(self, beta, gammas, lambdas, sign_mode, group=None):
        self.variables.add(beta)
        self.variables.update(gammas)
        self.gmcs.append(GMCRecord(beta, tuple(gammas), tuple(lambdas), sign_mode, group))

    # -- evaluation ---------------------------------------------------------

    def lift_assignment(self, x) -> dict:
        v = {alpha: Polynomial.monomial(alpha).evaluate(x) for alpha in self.variables}
        return v

    def aux_values(self, x) -> list:
        if self.aux_count == 0:
            return []
        if self.aux_lift is None:
            raise BuilderError("model has auxiliaries but no lift rule")
        return self.aux_lift(x)

    def max_violation(self, x) -> float:
        """Worst constraint violation of the monomial lift of x (0 = feasible)."""
        v = self.lift_assignment(x)
        aux = self.aux_values(x)
        worst = 0.0
        for row in self.rows:
            val = row.form.value(v, aux)
            worst = max(worst, -val if row.sense == ">=" else abs(val))
        for block in self.lmis:
            m = np.array(
                [[e.value(v, aux) for e in row_entries] for row_entries in block.entries]
            )
            worst = max(worst, -float(np.linalg.eigvalsh(m)[0]))
        for rec in self.gmcs:
            prod = 1.0
            for g, lam in zip(rec.gammas, rec.lambdas):
                prod *= max(v[g], 0.0) ** lam
            val = v[rec.beta]
            if rec.sign_mode == "even":
                worst = max(worst, -val, val - prod)
            else:
                worst = max(worst, abs(val) - prod)
        return worst

    def dump(self) -> str:
        """Human-readable listing of all constraints with exponent labels."""
        lines = [f"moment model on {len(self.variables)} monomial variables, "
                 f"{self.aux_count} auxiliaries"]
        for row in self.rows:
            op = ">= 0" if row.sense == ">=" else "== 0"
            lines.append(f"  row:  {row.form} {op}")
        for block in self.lmis:
            lines.append(f"  lmi ({block.size}x{block.size}):")
            for row_entries in block.entries:
                lines.append("    [ " + " | ".join(str(e) for e in row_entries) + " ]")
        for rec in self.gmcs:
            rel = "0 <= v <= prod" if rec.sign_mode == "even" else "|v| <= prod"
            lines.append(
                f"  gmc:  v{rec.beta} vs prod of v{list(rec.gammas)}^{list(rec.lambdas)} ({rel})"
            )
        return "\n".join(lines)


def merge_models(models, n: int) -> MomentModel:
    """Join models over their shared monomial variables in one pass.

    Each model's aux indices are offset by the aux count of the models before
    it, and its group ids by one past the largest group id so far.  The merged
    aux lift calls each model's lift in turn, without nesting, so its depth
    does not grow with the number of models.
    """
    out = MomentModel(n)
    lifts = []
    aux_off = 0
    grp_off = 0
    for model in models:
        if model.n != n:
            raise BuilderError("model dimension mismatch")

        def shifted(form):
            return form.shift_aux(aux_off) if aux_off and form.aux else form

        def regroup(group):
            return group + grp_off if group is not None else None

        out.variables |= model.variables
        for row in model.rows:
            out.rows.append(Row(shifted(row.form), row.sense, row.factors, regroup(row.group)))
        for block in model.lmis:
            entries = [[shifted(e) for e in row_entries] for row_entries in block.entries]
            out.lmis.append(LMIBlock(entries, block.basis, block.multiplier_factors,
                                     regroup(block.group)))
        for rec in model.gmcs:
            out.gmcs.append(GMCRecord(rec.beta, rec.gammas, rec.lambdas, rec.sign_mode,
                                      regroup(rec.group)))
        for gid, info in model.groups.items():
            out.groups[gid + grp_off] = info
        if model.groups:
            grp_off = max(out.groups) + 1
        if model.aux_count:
            lifts.append(model.aux_lift)
            aux_off += model.aux_count
    out.aux_count = aux_off
    if lifts and None not in lifts:
        def lift(x):
            vals = []
            for part in lifts:
                vals.extend(part(x))
            return vals

        out.aux_lift = lift
    return out


# ---------------------------------------------------------------------------
# builders


def _pattern_base(P: Pattern) -> Exponent:
    base = P.meta.get("base_alpha")
    if base is None:
        base = tuple(max(a[i] for a in P.exponents) for i in range(P.n))
    return base


def _transformed_ranges(base: Exponent, box: Box) -> tuple:
    """Support coordinates of base and the exact ranges of x_i^{base_i}."""
    supp = sorted(exp_support(base))
    ranges = []
    for i in supp:
        r = monomial_range(unit_exponent(len(base), i, base[i]), box)
        if not r.finite:
            raise BuilderError(
                f"vertex model needs finite bounds; x_{i}^{base[i]} is unbounded"
            )
        ranges.append(r)
    return supp, ranges


def build_multilinear_model(P: Pattern, box: Box) -> MomentModel:
    """Exact polytope model of a multilinear pattern via box-vertex mixtures."""
    base = _pattern_base(P)
    cube_ok = all(a[i] in (0, base[i]) for a in P.exponents for i in range(P.n))
    if not cube_ok:
        raise BuilderError("pattern is not contained in its multilinear cube")
    supp, ranges = _transformed_ranges(base, box)
    k = len(supp)
    if k > VERTEX_HARD_CAP:
        raise PatternTooWide(f"multilinear pattern touches {k} coordinates (cap {VERTEX_HARD_CAP})")
    model = MomentModel(P.n)
    vertices = list(itertools.product(*[(r.lo, r.hi) for r in ranges]))
    model.aux_count = len(vertices)
    gid = 0
    supp_pos = {i: j for j, i in enumerate(supp)}

    def vertex_value(beta, p):
        val = 1.0
        for i in exp_support(beta):
            val *= p[supp_pos[i]]
        return val

    zero = zero_exponent(P.n)
    pat_exps = sorted(P.exponents)
    table = {beta: [vertex_value(beta, p) for p in vertices] for beta in pat_exps}
    # mixture rows: v_beta = sum_p lambda_p * m_beta(p); the beta = 0 row is
    # the normalization sum_p lambda_p = 1
    model.add_row(
        LinearForm(-1.0, {}, {j: 1.0 for j in range(len(vertices))}),
        sense="==", group=gid,
    )
    for beta in pat_exps:
        if beta == zero:
            continue
        aux = {j: -m for j, m in enumerate(table[beta]) if m != 0.0}
        model.add_row(LinearForm(0.0, {beta: 1.0}, aux), sense="==", group=gid)
    for j in range(len(vertices)):
        model.add_row(LinearForm(0.0, {}, {j: 1.0}), group=gid)
    model.groups[gid] = GroupInfo(
        "vertex",
        {
            "base_alpha": base,
            "support": tuple(supp),
            "vertices": tuple(vertices),
            "pattern": tuple(pat_exps),
            "shift": None,
        },
    )

    def lift(x, supp=supp, ranges=ranges, base=base, vertices=vertices):
        weights = []
        for pos, i in enumerate(supp):
            y = float(x[i]) ** base[i]
            lo, hi = ranges[pos].lo, ranges[pos].hi
            if hi > lo:
                a_hi = (y - lo) / (hi - lo)
            else:
                a_hi = 0.5
            weights.append({lo: 1.0 - a_hi, hi: a_hi} if hi > lo else None)
        vals = []
        for p in vertices:
            lam = 1.0
            for pos in range(len(supp)):
                if weights[pos] is None:
                    lam *= 0.5
                elif p[pos] == ranges[pos].hi and ranges[pos].hi > ranges[pos].lo:
                    lam *= (float(x[supp[pos]]) ** base[supp[pos]] - ranges[pos].lo) / (
                        ranges[pos].hi - ranges[pos].lo
                    )
                else:
                    lam *= (ranges[pos].hi - float(x[supp[pos]]) ** base[supp[pos]]) / (
                        ranges[pos].hi - ranges[pos].lo
                    )
            vals.append(lam)
        return vals

    model.aux_lift = lift
    return model


def build_mccormick_model(P: Pattern, box: Box) -> MomentModel:
    """The four linearized bound-factor products for a two-coordinate square."""
    base = _pattern_base(P)
    supp, ranges = _transformed_ranges(base, box)
    if len(supp) != 2:
        raise BuilderError("McCormick model needs exactly two active coordinates")
    i, j = supp
    gi = unit_exponent(P.n, i, base[i])
    gj = unit_exponent(P.n, j, base[j])
    gij = exp_add(gi, gj)
    (li, ui), (lj, uj) = (ranges[0].lo, ranges[0].hi), (ranges[1].lo, ranges[1].hi)
    model = MomentModel(P.n)
    lo_i, up_i = ("mon_minus_lo", gi), ("up_minus_mon", gi)
    lo_j, up_j = ("mon_minus_lo", gj), ("up_minus_mon", gj)
    # (y_i - l_i)(y_j - l_j) >= 0 and the three sign variants, expanded
    model.add_row(LinearForm(li * lj, {gij: 1.0, gi: -lj, gj: -li}),
                  factors=(lo_i, lo_j))
    model.add_row(LinearForm(-li * uj, {gij: -1.0, gi: uj, gj: li}),
                  factors=(lo_i, up_j))
    model.add_row(LinearForm(-ui * lj, {gij: -1.0, gi: lj, gj: ui}),
                  factors=(up_i, lo_j))
    model.add_row(LinearForm(ui * uj, {gij: 1.0, gi: -uj, gj: -ui}),
                  factors=(up_i, up_j))
    return model


def build_bound_factor_model(g: Sequence[Polynomial], B, box: Box) -> MomentModel:
    """Handelman rows L_v(g^beta) >= 0 for every multi-index beta in B."""
    if not g:
        raise BuilderError("bound-factor model needs at least one factor")
    n = g[0].n
    model = MomentModel(n)
    for gi in g:
        if gi.degree() > 1:
            raise BuilderError("bound factors must be affine")
    for beta in sorted(as_exponent(b) for b in B):
        if len(beta) != len(g):
            raise BuilderError("multi-index length must match the factor count")
        poly = Polynomial.constant(n, 1.0)
        factors = []
        for gi, power in zip(g, beta):
            for _ in range(power):
                poly = poly * gi
                factors.append(("affine", gi))
        form = linearize(poly)
        if not form.coeffs and not factors:
            continue  # the empty product is the tautology 1 >= 0
        model.add_row(form, factors=tuple(factors))
    return model


def _as_columns(Gamma) -> tuple:
    G = np.asarray(Gamma, dtype=int)
    if G.ndim == 1:
        G = G.reshape(-1, 1)
    return tuple(tuple(int(v) for v in G[:, j]) for j in range(G.shape[1]))


def _gamma_apply(columns, delta: Exponent) -> Exponent:
    img = zero_exponent(len(columns[0]))
    for j, mult in enumerate(delta):
        if mult:
            img = exp_add(img, tuple(mult * e for e in columns[j]))
    return img


def _moment_entry(alpha: Exponent) -> LinearForm:
    if sum(alpha) == 0:
        return LinearForm(1.0)
    return LinearForm(0.0, {alpha: 1.0})


def build_lasserre_model(Gamma, d: int, box: Box) -> MomentModel:
    """Moment LMI plus quadratic localizers on the image of a degree simplex.

    The pattern is Gamma * N^k_{2d}; the moment matrix is indexed by the
    degree-d base simplex and each column gets the localizer
    (x^{gamma(i)} - l)(u - x^{gamma(i)}), with one-sided boxes dropping the
    missing factor.  Entries are obtained by symbolic expansion.
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
    base = degrees_up_to(k, d)
    basis = tuple(_gamma_apply(columns, delta) for delta in base)
    entries = [
        [_moment_entry(_gamma_apply(columns, exp_add(da, db))) for db in base]
        for da in base
    ]
    _emit_lmi_or_row(model, entries, basis, ())
    if d >= 1:
        loc_base = degrees_up_to(k, d - 1)
        loc_basis = tuple(_gamma_apply(columns, delta) for delta in loc_base)
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
            h = product_of_factors(factors, box, n)
            loc_entries = [
                [
                    linearize(h * Polynomial.monomial(
                        _gamma_apply(columns, exp_add(da, db))))
                    for db in loc_base
                ]
                for da in loc_base
            ]
            _emit_lmi_or_row(model, loc_entries, loc_basis, tuple(factors))
    return model


def _emit_lmi_or_row(model: MomentModel, entries, basis, multiplier_factors, group=None):
    """Size-1 LMIs become plain rows; larger blocks stay matrices."""
    if len(entries) == 1:
        factors = tuple(multiplier_factors)
        b = basis[0]
        if sum(b):
            factors = factors + (("monomial", exp_add(b, b)),)
        model.add_row(entries[0][0], factors=factors or None, group=group)
    else:
        model.add_lmi(entries, basis=basis, multiplier_factors=multiplier_factors,
                      group=group)


def build_dense_moment_model(g: Sequence[Polynomial], B_list: Sequence) -> MomentModel:
    """Cropped localizing matrices L_v(g_i M_{B_i}) >= 0 for each factor."""
    if len(g) != len(B_list):
        raise BuilderError("need one basis per factor")
    if not g:
        raise BuilderError("dense moment model needs at least one factor")
    n = g[0].n
    model = MomentModel(n)
    for gi, Bi in zip(g, B_list):
        basis = sorted(as_exponent(b) for b in Bi)
        if not basis:
            continue
        entries = [
            [
                linearize(gi * Polynomial.monomial(exp_add(ba, bb)))
                for bb in basis
            ]
            for ba in basis
        ]
        one = Polynomial.constant(n, 1.0)
        if gi.allclose(one):
            factors = ()
        elif gi.degree() <= 1:
            factors = (("affine", gi),)
        elif len(gi.terms) == 1:
            factors = (("monomial", next(iter(gi.terms))),)
        else:
            factors = (("poly", gi),)
        _emit_lmi_or_row(model, entries, tuple(basis), factors)
    return model


def build_sparse_sos_moment_model(B_list: Sequence, shifts: Sequence | None = None) -> MomentModel:
    """One moment LMI per basis block, optionally shifted by a monomial."""
    if not B_list:
        raise BuilderError("need at least one basis block")
    first = next(iter(B_list[0]))
    n = len(as_exponent(first))
    model = MomentModel(n)
    if shifts is None:
        shifts = [zero_exponent(n)] * len(B_list)
    for Bi, eta in zip(B_list, shifts):
        basis = sorted(as_exponent(b) for b in Bi)
        eta = as_exponent(eta)
        entries = [
            [_moment_entry(exp_add(eta, exp_add(ba, bb))) for bb in basis]
            for ba in basis
        ]
        factors = (("monomial", eta),) if sum(eta) else ()
        _emit_lmi_or_row(model, entries, tuple(basis), factors)
    return model


def build_shifted_model(eta: Exponent, base: MomentModel, box: Box) -> MomentModel:
    """Homogenize a base model by v_eta and shift every monomial index by eta.

    Requires x^eta to be variable-independent from every base monomial and
    nonnegative on the box (the conic-hull argument needs t = x^eta >= 0).
    """
    eta = as_exponent(eta)
    if sum(eta) == 0:
        return base
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
    model.aux_count = base.aux_count

    def shifted(form: LinearForm) -> LinearForm:
        coeffs = {exp_add(a, eta): c for a, c in form.coeffs.items()}
        if form.constant:
            coeffs[eta] = coeffs.get(eta, 0.0) + form.constant
        return LinearForm(0.0, coeffs, form.aux)

    for row in base.rows:
        factors = row.factors
        if factors is not None:
            factors = factors + (("monomial", eta),)
        model.add_row(shifted(row.form), row.sense, factors, row.group)
    for block in base.lmis:
        entries = [[shifted(e) for e in row_entries] for row_entries in block.entries]
        model.add_lmi(entries, basis=block.basis,
                      multiplier_factors=block.multiplier_factors + (("monomial", eta),),
                      group=block.group)
    for rec in base.gmcs:
        model.add_gmc(exp_add(rec.beta, eta),
                      tuple(exp_add(g, eta) for g in rec.gammas),
                      rec.lambdas, rec.sign_mode, rec.group)
    for gid, info in base.groups.items():
        payload = dict(info.payload)
        payload["shift"] = eta
        model.groups[gid] = GroupInfo(info.kind, payload)
    if math.isfinite(rng.lo):
        model.add_row(LinearForm(-rng.lo, {eta: 1.0}),
                      factors=(("mon_minus_lo", eta),))
    if math.isfinite(rng.hi):
        model.add_row(LinearForm(rng.hi, {eta: -1.0}),
                      factors=(("up_minus_mon", eta),))
    if base.aux_count:
        base_lift = base.aux_lift
        eta_mono = Polynomial.monomial(eta)
        model.aux_lift = lambda x: [eta_mono.evaluate(x) * t for t in base_lift(x)]
    return model


def build_circuit_model(P: Pattern, domain: str = "R_plus") -> MomentModel:
    """Geometric-mean-cone membership for a simplicial circuit."""
    if P.kind not in ("circuit", "sdsos"):
        raise BuilderError("pattern has no circuit metadata")
    if domain not in ("R_plus", "R_full"):
        raise BuilderError(f"unknown circuit domain {domain!r}")
    beta = P.meta["beta"]
    gammas = P.meta["gammas"]
    lambdas = P.meta["lambdas"]
    if domain == "R_full":
        for g in gammas:
            if any(e % 2 for e in g):
                raise BuilderError("full-space circuits need even outer exponents")
        even = all(e % 2 == 0 for e in beta)
    else:
        even = True
    model = MomentModel(P.n)
    gid = 0
    for g in gammas:
        model.add_row(LinearForm(0.0, {g: 1.0}), factors=(("monomial", g),), group=gid)
    if even:
        model.add_row(LinearForm(0.0, {beta: 1.0}), factors=(("monomial", beta),),
                      group=gid)
    model.add_gmc(beta, gammas, lambdas, "even" if even else "odd", group=gid)
    model.groups[gid] = GroupInfo(
        "circuit",
        {"beta": beta, "gammas": gammas, "lambdas": lambdas,
         "sign_mode": "even" if even else "odd", "domain": domain},
    )
    return model


# ---------------------------------------------------------------------------
# policy routing


@dataclass
class ModelPolicy:
    """Per-pattern-kind choice of moment-body model."""

    multilinear: str = "vertex"  # "vertex" or "mccormick"
    vertex_cap: int = 6  # pairwise McCormick fallback above this width
    generic_lasserre_fallback: bool = True
    bound_factor_degree: int = 2

    def __post_init__(self):
        if self.multilinear not in ("vertex", "mccormick"):
            raise ValueError("multilinear policy must be 'vertex' or 'mccormick'")
        if self.vertex_cap > VERTEX_HARD_CAP:
            raise ValueError(f"vertex cap above the hard cap {VERTEX_HARD_CAP}")


def _bounds_model(model: MomentModel, alpha: Exponent, box: Box):
    rng = monomial_range(alpha, box)
    if math.isfinite(rng.lo):
        model.add_row(LinearForm(-rng.lo, {alpha: 1.0}), factors=(("mon_minus_lo", alpha),))
    if math.isfinite(rng.hi):
        model.add_row(LinearForm(rng.hi, {alpha: -1.0}), factors=(("up_minus_mon", alpha),))


def _pairwise_mccormick(P: Pattern, box: Box) -> MomentModel:
    base = _pattern_base(P)
    supp = sorted(exp_support(base))
    subs = []
    for i, j in itertools.combinations(supp, 2):
        sub = Pattern(
            frozenset({zero_exponent(P.n), unit_exponent(P.n, i, base[i]),
                       unit_exponent(P.n, j, base[j]),
                       exp_add(unit_exponent(P.n, i, base[i]), unit_exponent(P.n, j, base[j]))}),
            kind="multilinear",
        )
        subs.append(build_mccormick_model(sub, box))
    model = merge_models(subs, P.n)
    for alpha in sorted(P.exponents):
        if sum(alpha):
            _bounds_model(model, alpha, box)
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


def model_for_pattern(P: Pattern, box: Box, policy: ModelPolicy) -> MomentModel:
    """Route one pattern to its convex model per the policy."""
    kind = P.kind
    if kind == "multilinear":
        base = _pattern_base(P)
        k = len(exp_support(base))
        if k == 0:
            return MomentModel(P.n)
        if k == 1 or (policy.multilinear == "vertex" and k <= policy.vertex_cap):
            return build_multilinear_model(P, box)
        if k == 2:
            return build_mccormick_model(P, box)
        if policy.multilinear == "mccormick" or k > policy.vertex_cap:
            return _pairwise_mccormick(P, box)
        return build_multilinear_model(P, box)
    if kind == "chain":
        gamma = P.meta["gamma"]
        steps = P.meta["steps"]
        return build_lasserre_model(np.array(gamma).reshape(-1, 1),
                                    math.ceil(steps / 2), box)
    if kind == "shifted_chain":
        axis = P.meta["axis"]
        steps = P.meta["steps"]
        eta = P.shift
        if steps == 0:
            base = MomentModel(P.n)
        else:
            base = build_lasserre_model(
                np.array(unit_exponent(P.n, axis)).reshape(-1, 1), steps // 2, box)
        if eta is None or sum(eta) == 0:
            return base
        model = build_shifted_model(eta, base, box)
        if steps == 0:
            _bounds_model(model, eta, box)
        return model
    if kind == "submonoid":
        gamma = P.meta.get("gamma")
        d = P.meta.get("d")
        if gamma is not None and d is not None:
            return build_lasserre_model(np.array(gamma, dtype=int).T, d, box)
        return _generic_model(P, box, policy)
    if kind in ("circuit", "sdsos"):
        if box.lower == tuple([0.0] * P.n) and not any(map(math.isfinite, box.upper)):
            domain = "R_plus"
        elif not any(map(math.isfinite, box.lower + box.upper)):
            domain = "R_full"
        else:
            raise BuilderError("circuit patterns apply on R_+^n or R^n domains")
        return build_circuit_model(P, domain)
    if kind == "sos_block":
        basis = P.meta["basis"]
        eta = P.shift if P.shift is not None else zero_exponent(P.n)
        return build_sparse_sos_moment_model([basis], [eta])
    return _generic_model(P, box, policy)


def _generic_model(P: Pattern, box: Box, policy: ModelPolicy) -> MomentModel:
    col = _collinear_direction(P)
    if col is not None:
        gamma, top = col
        return build_lasserre_model(np.array(gamma).reshape(-1, 1),
                                    math.ceil(top / 2), box)
    base = _pattern_base(P)
    if all(a[i] in (0, base[i]) for a in P.exponents for i in range(P.n)):
        return model_for_pattern(
            Pattern(P.exponents, kind="multilinear", meta={"base_alpha": base}),
            box, policy)
    if policy.generic_lasserre_fallback:
        supp = sorted(set().union(*(exp_support(a) for a in P.exponents)))
        d = math.ceil(max(sum(a) for a in P.exponents) / 2)
        cols = [unit_exponent(P.n, i) for i in supp]
        if math.comb(len(supp) + d, len(supp)) <= 300:
            return build_lasserre_model(np.array(cols, dtype=int).T, d, box)
    model = MomentModel(P.n)
    for alpha in sorted(P.exponents):
        if sum(alpha):
            _bounds_model(model, alpha, box)
    return model
