"""Assemble a full pattern relaxation into one conic program.

The per-pattern moment models are read in place and share the monomial
columns; each model's auxiliaries get their own block of columns.  v_0 is
pinned to 1, every support monomial of the objective gets its trivial box
bounds, and constraints are deduplicated.  Constraints carry piece ids so the
certificate module can reassemble dual information per pattern; each piece's
payload is the only record of its provenance.
"""

from __future__ import annotations

import itertools
import math
import warnings

from .models import ModelPolicy, model_for_pattern, shared_vertex_tables
from .patterns import PatternFamily
from .polynomials import (
    Box,
    LinearForm,
    Polynomial,
    monomial_range,
    zero_exponent,
)
from .program import ConicProgram, GMCData


def assemble_relaxation(
    f: Polynomial,
    fam: PatternFamily,
    box: Box,
    policy: ModelPolicy | None = None,
    sense: str = "min",
) -> ConicProgram:
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if fam.n != f.n or box.n != f.n:
        raise ValueError("dimension mismatch between objective, family, and box")
    policy = policy or ModelPolicy()
    fobj = f if sense == "min" else -f

    covered = fam.union_support()
    zero = zero_exponent(f.n)
    missing = sorted(a for a in fobj.support() if a != zero and a not in covered)
    if missing:
        warnings.warn(
            f"{len(missing)} objective exponents not covered by the pattern family; "
            f"falling back to box bounds for {missing}",
            stacklevel=2,
        )

    with shared_vertex_tables():
        models = [model_for_pattern(p, box, policy) for p in fam]
    variables = set().union(*(m.variables for m in models))
    monomials = sorted({zero} | variables | fobj.support())
    col_of = {a: j for j, a in enumerate(monomials)}
    n_mono = len(monomials)
    # each model's auxiliaries take the columns after those of the models before it
    aux_cols = list(itertools.accumulate((m.aux_count for m in models), initial=n_mono))
    ncols = aux_cols.pop()
    prog = ConicProgram(ncols, list(monomials) + [None] * (ncols - n_mono))
    prog.meta.update({"box": box, "sense": sense, "minimized": fobj, "v0_col": col_of[zero]})
    prog.aux_lifts = [(aux_col, m.aux_lift) for m, aux_col in zip(models, aux_cols)
                      if m.aux_count]

    for alpha, c in fobj.terms.items():
        prog.c[col_of[alpha]] = c

    j0 = col_of[zero]
    prog.add_eq({j0: 1.0}, 1.0)

    def to_coeff(form: LinearForm) -> dict:
        coeff = {col_of[a]: c for a, c in form.coeffs.items()}
        if form.constant:
            coeff[j0] = coeff.get(j0, 0.0) + form.constant
        return coeff

    # the models' own pieces come first, in model order
    model_pieces = [prog.add_piece(m.piece.kind, m.piece.payload) if m.piece else None
                    for m in models]

    def emit(coeff, sense_row, factors, piece):
        """Add the row; a row without a piece gets its own linear piece."""
        if piece is None:
            piece = prog.add_piece("linear", {"factors": factors or ()})
        if sense_row == "==":
            prog.add_eq(coeff, 0.0, piece=piece)
        else:
            prog.add_ineq(coeff, 0.0, piece=piece)

    seen_rows: dict = {"==": set(), ">=": set()}

    def add_row(coeff, sense_row, factors, piece=None):
        """Add a row unless it duplicates one: the same sense and columns, with
        coefficients equal after rounding to 12 decimals."""
        key = _rounded(coeff)
        if key in seen_rows[sense_row]:
            return
        seen_rows[sense_row].add(key)
        emit(coeff, sense_row, factors, piece)

    for model, piece, aux_col in zip(models, model_pieces, aux_cols):
        for row in model.rows:
            form = row.form
            if not form.aux:
                add_row(to_coeff(form), row.sense, row.factors, piece)
                continue
            # a row on a model's own auxiliary columns cannot duplicate another
            # model's row, and the rows of a vertex model (the one model with
            # auxiliaries) have distinct column sets, so it is not compared
            coeff = {aux_col + i: c for i, c in form.aux.items()}
            if form.coeffs or form.constant:
                coeff = to_coeff(form) | coeff
            emit(coeff, row.sense, row.factors, piece)

    seen_blocks: set = set()
    for model in models:
        for block in model.lmis:
            # the zero exponent's column is v_0's, which homogenizes the constant part
            entries = {(col_of[a], i, j): c for (a, i, j), c in block.entries.items()}
            key = (block.size, _rounded(entries))
            if key in seen_blocks:
                continue
            seen_blocks.add(key)
            piece = prog.add_piece(
                "sos", {"basis": block.basis, "multiplier_factors": block.multiplier_factors})
            prog.add_block(block.size, entries, piece=piece)

    for model, piece in zip(models, model_pieces):
        for rec in model.gmcs:
            prog.gmcs.append(
                GMCData(col_of[rec.beta], tuple(col_of[g] for g in rec.gammas),
                        rec.lambdas, rec.sign_mode, piece)
            )

    # trivial monomial bounds on the objective support
    for alpha in sorted(fobj.support()):
        if alpha == zero:
            continue
        rng = monomial_range(alpha, box)
        col = col_of[alpha]
        if math.isfinite(rng.lo):
            add_row({col: 1.0, j0: -rng.lo}, ">=", (("mon_minus_lo", alpha),))
        if math.isfinite(rng.hi):
            add_row({col: -1.0, j0: rng.hi}, ">=", (("up_minus_mon", alpha),))
    return prog


def _rounded(coeff: dict) -> frozenset:
    """The dedupe key of a row or block: its (key, value) items, values rounded
    to 12 decimals."""
    return frozenset((k, round(c, 12)) for k, c in coeff.items())
