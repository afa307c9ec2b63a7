"""Assemble a full pattern relaxation into one conic program.

Per-pattern moment models are merged over shared monomial variables in one
linear pass (`models.merge_models`), v_0 is pinned to 1, every support
monomial of the objective gets its trivial box bounds, and constraints are
deduplicated.  Constraints carry piece ids so the certificate module can
reassemble dual information per pattern.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .models import ModelPolicy, merge_models, model_for_pattern
from .patterns import PatternFamily
from .polynomials import (
    Box,
    LinearForm,
    Polynomial,
    linearize,
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

    model = merge_models((model_for_pattern(p, box, policy) for p in fam), f.n)

    monomials = sorted({zero} | model.variables | (fobj.support() - {zero}))
    if monomials[0] != zero:
        monomials = [zero] + monomials
    col_of = {a: j for j, a in enumerate(monomials)}
    n_mono = len(monomials)
    ncols = n_mono + model.aux_count
    prog = ConicProgram(ncols, list(monomials) + [None] * model.aux_count)
    prog.meta.update(
        {
            "n": f.n,
            "box": box,
            "sense": sense,
            "objective": f,
            "minimized": fobj,
            "v0_col": col_of[zero],
            "model_aux_cols": list(range(n_mono, ncols)),
        }
    )
    prog.aux_lift = model.aux_lift

    obj = linearize(fobj, context="conic")
    for alpha, c in obj.coeffs.items():
        prog.c[col_of[alpha]] = c

    prog.add_eq({col_of[zero]: 1.0}, 1.0)

    def to_coeff(form: LinearForm) -> dict:
        coeff = {col_of[a]: c for a, c in form.coeffs.items()}
        if form.constant:
            j0 = col_of[zero]
            coeff[j0] = coeff.get(j0, 0.0) + form.constant
        for i, c in form.aux.items():
            coeff[n_mono + i] = c
        return coeff

    group_piece: dict = {}
    for gid, info in model.groups.items():
        group_piece[gid] = prog.add_piece(info.kind, dict(info.payload))

    seen_rows: set = set()

    def add_row(coeff, sense_row, piece, factors):
        key = (sense_row, tuple(sorted((j, round(c, 12)) for j, c in coeff.items())))
        if key in seen_rows:
            return
        seen_rows.add(key)
        if sense_row == "==":
            prog.add_eq(coeff, 0.0, piece=piece)
        else:
            prog.add_ineq(coeff, 0.0, piece=piece, factors=factors)

    for row in model.rows:
        coeff = to_coeff(row.form)
        if row.group is not None:
            piece = group_piece[row.group]
            add_row(coeff, row.sense, piece, None)
        else:
            piece = prog.add_piece("linear", {"factors": row.factors or ()})
            add_row(coeff, row.sense, piece, row.factors)

    seen_blocks: set = set()
    for block in model.lmis:
        m = block.size
        coeff: dict = {}
        const = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                e = block.entries[i][j]
                const[i, j] += e.constant
                for alpha, c in e.coeffs.items():
                    col = col_of[alpha]
                    coeff.setdefault(col, np.zeros((m, m)))[i, j] += c
                for a_idx, c in e.aux.items():
                    col = n_mono + a_idx
                    coeff.setdefault(col, np.zeros((m, m)))[i, j] += c
        # homogenize the constant part onto v_0
        if np.any(const):
            j0 = col_of[zero]
            coeff.setdefault(j0, np.zeros((m, m)))
            coeff[j0] += const
            const = np.zeros((m, m))
        key = (m, tuple(sorted((j, M.round(12).tobytes()) for j, M in coeff.items())))
        if key in seen_blocks:
            continue
        seen_blocks.add(key)
        if block.group is not None:
            piece = group_piece[block.group]
        else:
            piece = prog.add_piece(
                "sos",
                {"basis": block.basis, "multiplier_factors": block.multiplier_factors},
            )
        prog.add_block(m, coeff, const, piece=piece, basis=block.basis,
                       multiplier_factors=block.multiplier_factors)

    for rec in model.gmcs:
        piece = group_piece[rec.group] if rec.group is not None else prog.add_piece(
            "circuit", {"beta": rec.beta, "gammas": rec.gammas,
                        "lambdas": rec.lambdas, "sign_mode": rec.sign_mode})
        prog.gmcs.append(
            GMCData(col_of[rec.beta], tuple(col_of[g] for g in rec.gammas),
                    rec.lambdas, rec.sign_mode, piece)
        )

    # trivial monomial bounds on the objective support
    j0 = col_of[zero]
    for alpha in sorted(fobj.support()):
        if alpha == zero:
            continue
        rng = monomial_range(alpha, box)
        col = col_of[alpha]
        if math.isfinite(rng.lo):
            piece = prog.add_piece("linear", {"factors": (("mon_minus_lo", alpha),)})
            add_row({col: 1.0, j0: -rng.lo}, ">=", piece, (("mon_minus_lo", alpha),))
        if math.isfinite(rng.hi):
            piece = prog.add_piece("linear", {"factors": (("up_minus_mon", alpha),)})
            add_row({col: -1.0, j0: rng.hi}, ">=", piece, (("up_minus_mon", alpha),))
    return prog
