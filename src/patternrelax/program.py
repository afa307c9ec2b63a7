"""Conic programs over monomial and auxiliary variables.

A ConicProgram is the assembled, solver-facing object: a linear objective
over columns, equality rows, inequality rows, PSD blocks with affine entries,
and geometric-mean-cone records.  Lowering replaces every GMC record by a
binary tower of 2x2 PSD blocks.  Constraints carry piece ids that tie solver
duals back to certificate pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from .polynomials import Exponent, Polynomial, zero_exponent

RATIONALIZE_TOL = 1e-12


class LoweringError(ValueError):
    pass


class DenominatorCap(LoweringError):
    pass


@dataclass(slots=True)
class Piece:
    kind: str  # "linear", "sos", "vertex", "circuit"
    payload: dict


@dataclass
class PSDBlockData:
    """One PSD block F(x) = const + sum_col x_col F_col >= 0.

    Each entry (col, i, j) -> v with i <= j sets F_col[i, j] = F_col[j, i] = v,
    as in SDPA. The block's columns are those of its entries; an entry may be
    zero. const holds the constant matrix the same way, (i, j) -> v; it is
    empty on assembled blocks, whose constant part is homogenized onto v_0.
    """

    size: int
    entries: dict  # (col, i, j) -> float, i <= j
    const: dict = field(default_factory=dict)  # (i, j) -> float, i <= j
    piece: int | None = None


@dataclass
class GMCData:
    beta_col: int
    gamma_cols: tuple
    lambdas: tuple
    sign_mode: str
    piece: int | None = None


@dataclass(slots=True)
class LinRow:
    coeff: dict  # column -> float
    rhs: float = 0.0  # a'x >= rhs  (or == rhs)
    piece: int | None = None


class ConicProgram:
    def __init__(self, ncols: int, col_exponents=None):
        self.ncols = ncols
        self.col_exponents = list(col_exponents) if col_exponents is not None else [None] * ncols
        self.c = np.zeros(ncols)
        self.eqs: list[LinRow] = []
        self.ineqs: list[LinRow] = []
        self.blocks: list[PSDBlockData] = []
        self.gmcs: list[GMCData] = []
        self.pieces: list[Piece] = []
        self.meta: dict = {}
        self.aux_lifts: list = []  # (first aux column, x -> that model's aux values)
        self.tower_lift: list = []  # (node_col, kind, data) in evaluation order

    # -- construction helpers ------------------------------------------------

    def add_column(self, exponent=None) -> int:
        self.ncols += 1
        self.col_exponents.append(exponent)
        self.c = np.append(self.c, 0.0)
        return self.ncols - 1

    def add_piece(self, kind: str, payload: dict) -> int:
        self.pieces.append(Piece(kind, payload))
        return len(self.pieces) - 1

    # a row keeps the caller's coeff dict, which must not change afterwards

    def add_eq(self, coeff: dict, rhs: float, piece=None):
        self.eqs.append(LinRow(coeff, float(rhs), piece))

    def add_ineq(self, coeff: dict, rhs: float = 0.0, piece=None):
        self.ineqs.append(LinRow(coeff, float(rhs), piece))

    def add_block(self, size, entries, const=None, piece=None):
        self.blocks.append(PSDBlockData(size, dict(entries), dict(const or {}), piece))

    # -- lowering of geometric-mean cones -------------------------------------

    def lowered(self, denominator_cap: int = 1 << 16) -> "ConicProgram":
        """Replace GMC records by 2x2 PSD towers; returns a new program.

        Lowering only appends columns, rows, blocks and lift steps, so the new
        program shares its rows, blocks and pieces with this one.
        """
        if not self.gmcs:
            return self
        out = ConicProgram(self.ncols, self.col_exponents)
        out.c = self.c.copy()
        out.eqs, out.ineqs = list(self.eqs), list(self.ineqs)
        out.blocks, out.pieces = list(self.blocks), list(self.pieces)
        out.meta = dict(self.meta)
        out.aux_lifts, out.tower_lift = list(self.aux_lifts), list(self.tower_lift)
        for rec in self.gmcs:
            _lower_gmc(out, rec, denominator_cap)
        return out

    # -- lifting a point of the original space --------------------------------

    def lift_point(self, x) -> np.ndarray:
        """Monomial lift of x, with auxiliaries set by their construction rules."""
        v = np.zeros(self.ncols)
        for j, alpha in enumerate(self.col_exponents):
            if alpha is not None:
                v[j] = Polynomial.monomial(alpha).evaluate(x)
        for col, lift in self.aux_lifts:
            vals = lift(x)
            v[col:col + len(vals)] = vals
        for col, kind, data in self.tower_lift:
            if kind == "geomean":
                prod = 1.0
                for g_col, lam in data:
                    prod *= max(v[g_col], 0.0) ** lam
                v[col] = prod
            elif kind == "sqrt":
                a_col, b_col = data
                v[col] = math.sqrt(max(v[a_col] * v[b_col], 0.0))
        return v

    def max_violation(self, v: np.ndarray) -> float:
        """Worst constraint violation of a full assignment (lowered or not)."""
        worst = 0.0
        for row in self.eqs:
            val = sum(c * v[j] for j, c in row.coeff.items()) - row.rhs
            worst = max(worst, abs(val))
        for row in self.ineqs:
            val = sum(c * v[j] for j, c in row.coeff.items()) - row.rhs
            worst = max(worst, -val)
        for blk in self.blocks:
            M = np.zeros((blk.size, blk.size))
            for (i, j), c in blk.const.items():
                M[i, j] = M[j, i] = c
            for (col, i, j), c in blk.entries.items():
                M[i, j] += v[col] * c
                if i != j:
                    M[j, i] += v[col] * c
            worst = max(worst, -float(np.linalg.eigvalsh(M)[0]))
        for rec in self.gmcs:
            prod = 1.0
            for g_col, lam in zip(rec.gamma_cols, rec.lambdas):
                prod *= max(v[g_col], 0.0) ** lam
            val = v[rec.beta_col]
            if rec.sign_mode == "even":
                worst = max(worst, -val, val - prod)
            else:
                worst = max(worst, abs(val) - prod)
        return worst

    def __repr__(self):
        return (
            f"ConicProgram({self.ncols} cols, {len(self.eqs)} eq, "
            f"{len(self.ineqs)} ineq, {len(self.blocks)} psd, {len(self.gmcs)} gmc)"
        )


def rationalize_weights(lambdas: Sequence[float], cap: int) -> tuple:
    """Common-denominator rationalization of barycentric weights."""
    fracs = [Fraction(l).limit_denominator(cap) for l in lambdas]
    for f, l in zip(fracs, lambdas):
        if abs(float(f) - l) > RATIONALIZE_TOL:
            raise DenominatorCap(
                f"weight {l} has no rational form with denominator <= {cap}"
            )
    D = 1
    for f in fracs:
        D = D * f.denominator // math.gcd(D, f.denominator)
    if D > cap:
        raise DenominatorCap(f"common denominator {D} exceeds cap {cap}")
    nums = [int(f * D) for f in fracs]
    if sum(nums) != D:
        raise DenominatorCap("rationalized weights do not sum to one")
    return nums, D


def _lower_gmc(prog: ConicProgram, rec: GMCData, cap: int):
    """Binary tower for 0 <= y <= prod t_i^{lambda_i} (or |v| <= prod)."""
    nums, D = rationalize_weights(rec.lambdas, cap)
    piece = rec.piece
    if rec.sign_mode == "even":
        target = rec.beta_col
        prog.add_ineq({target: 1.0}, 0.0, piece=piece)
    else:
        target = prog.add_column(None)
        prog.tower_lift.append((target, "geomean",
                                tuple(zip(rec.gamma_cols, rec.lambdas))))
        prog.add_ineq({target: 1.0}, 0.0, piece=piece)
        prog.add_ineq({target: 1.0, rec.beta_col: -1.0}, 0.0, piece=piece)
        prog.add_ineq({target: 1.0, rec.beta_col: 1.0}, 0.0, piece=piece)
    m = max(1, math.ceil(math.log2(D))) if D > 1 else 0
    slots = []
    for g_col, p in zip(rec.gamma_cols, nums):
        slots.extend([g_col] * p)
    slots.extend([target] * ((1 << m) - D))

    def pair_block(a_col, b_col, node_col):
        # [[a, node], [node, b]] >= 0
        entries = {(a_col, 0, 0): 1.0, (b_col, 1, 1): 1.0, (node_col, 0, 1): 1.0}
        prog.add_block(2, entries, piece=piece)

    level = slots
    while len(level) > 2:
        nxt = []
        for a, b in zip(level[0::2], level[1::2]):
            if a == b:
                nxt.append(a)
                continue
            node = prog.add_column(None)
            prog.tower_lift.append((node, "sqrt", (a, b)))
            pair_block(a, b, node)
            nxt.append(node)
        level = nxt
    if len(level) == 2:
        a, b = level
        if a == b:
            if a != target:
                prog.add_ineq({a: 1.0, target: -1.0}, 0.0, piece=piece)
        else:
            pair_block(a, b, target)
    else:  # single slot: y <= t
        (a,) = level
        if a != target:
            prog.add_ineq({a: 1.0, target: -1.0}, 0.0, piece=piece)


# ---------------------------------------------------------------------------
# SDPA sparse export / import


def export_sdpa(prog: ConicProgram) -> str:
    """Write the lowered program in SDPA sparse (.dat-s) format.

    Encoding: the program's variables are the SDPA primal variables; all
    inequality rows (plus each equality as a pair of opposite inequalities)
    form one diagonal block, followed by the PSD blocks. Zero entries are
    left out, and the entries are ordered by (matno, blkno, i, j).
    """
    if prog.gmcs:
        raise LoweringError("lower the program before SDPA export")
    if prog.ncols == 0:
        raise ValueError("cannot export an empty program")
    n_ineq, n_eq = len(prog.ineqs), len(prog.eqs)
    n_diag = n_ineq + 2 * n_eq
    nblocks = (1 if n_diag else 0) + len(prog.blocks)
    if nblocks == 0:
        raise ValueError("program has no constraints to export")
    sizes = ([-n_diag] if n_diag else []) + [b.size for b in prog.blocks]
    head = [str(prog.ncols), str(nblocks), " ".join(map(str, sizes)),
            " ".join(map(repr, np.asarray(prog.c, dtype=float).tolist()))]
    parts = []  # (matno, blkno, i, j, value), as arrays or scalars
    if n_diag:
        rows = prog.ineqs + prog.eqs
        # inequality r sits at r, equality k at n_ineq + 2k + 1 and its negation at the next
        pos = np.concatenate([np.arange(1, n_ineq + 1), np.arange(n_ineq + 1, n_diag, 2)])
        coeffs = [r.coeff for r in rows]
        lens = np.fromiter(map(len, coeffs), np.int64, len(rows))
        cols = np.fromiter(chain.from_iterable(coeffs), np.int64, int(lens.sum()))
        vals = _values(coeffs)
        rhs = np.fromiter((r.rhs for r in rows), float, len(rows))
        at = np.repeat(pos, lens)
        e0 = int(lens[:n_ineq].sum())  # the first entry of an equality
        for matno, i, v in ((0, pos, rhs), (cols + 1, at, vals),
                            (0, pos[n_ineq:] + 1, -rhs[n_ineq:]),
                            (cols[e0:] + 1, at[e0:] + 1, -vals[e0:])):
            parts.append((matno, 1, i, i, v))
    if prog.blocks:
        first = 2 if n_diag else 1
        blkno = np.arange(first, first + len(prog.blocks))
        entries = [b.entries for b in prog.blocks]
        keys = _keys(entries, 3)
        parts.append((keys[:, 0] + 1, np.repeat(blkno, list(map(len, entries))),
                      keys[:, 1] + 1, keys[:, 2] + 1, _values(entries)))
        # SDPA's F0 is the negated constant: F(x) = sum_col x_col F_col - F0
        consts = [b.const for b in prog.blocks]
        keys = _keys(consts, 2)
        parts.append((0, np.repeat(blkno, list(map(len, consts))),
                      keys[:, 0] + 1, keys[:, 1] + 1, -_values(consts)))
    matno, blkno, i, j, v = (
        np.concatenate([np.broadcast_to(p[k], p[4].shape) for p in parts]) for k in range(5))
    keep = v != 0
    matno, blkno, i, j, v = matno[keep], blkno[keep], i[keep], j[keep], v[keep]
    order = _entry_order(matno, blkno, i, j)
    # each distinct value is written once by repr, the shortest round-trip form,
    # and each integer once by str, from a table that covers the largest matrix,
    # block and row number (the diagonal block can have more rows than there
    # are columns)
    values, which = np.unique(v[order], return_inverse=True)
    reprs = list(map(repr, values.tolist()))
    top = max(int(a.max(initial=0)) for a in (matno, blkno, i, j))
    ints = list(map(str, range(top + 1)))
    fields = [map(ints.__getitem__, a[order].tolist()) for a in (matno, blkno, i, j)]
    lines = map(" ".join, zip(*fields, map(reprs.__getitem__, which.tolist())))
    return "\n".join(chain(head, lines)) + "\n"


def _entry_order(matno, blkno, i, j) -> np.ndarray:
    """The permutation that orders the SDPA entries by (matno, blkno, i, j).

    No two entries share all four numbers. A sort on one int64 key is several
    times faster than np.lexsort on four; the key is used when it fits.
    """
    nb, dim = (int(a.max(initial=0)) + 1 for a in (blkno, np.maximum(i, j)))
    if (int(matno.max(initial=0)) + 1) * nb * dim * dim <= 1 << 63:
        return np.argsort(((matno * nb + blkno) * dim + i) * dim + j)
    return np.lexsort((j, i, blkno, matno))


def _keys(dicts: list, width: int) -> np.ndarray:
    """The tuple keys of the dicts, in order, as rows of an int array."""
    flat = chain.from_iterable(chain.from_iterable(dicts))
    return np.fromiter(flat, np.int64, width * sum(map(len, dicts))).reshape(-1, width)


def _values(dicts: list) -> np.ndarray:
    return np.fromiter(chain.from_iterable(map(dict.values, dicts)), float,
                       sum(map(len, dicts)))


def parse_sdpa(text: str) -> ConicProgram:
    """Read SDPA sparse format back into an equivalent ConicProgram."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "*\"":
            continue
        rows.append(line)
    if len(rows) < 4:
        raise ValueError("SDPA input too short")
    nvars = int(rows[0].split()[0])
    nblocks = int(rows[1].split()[0])
    sizes = [int(tok.strip("{}(),")) for tok in rows[2].replace(",", " ").split()]
    if len(sizes) != nblocks:
        raise ValueError("SDPA block-size line does not match block count")
    cvec = [float(tok) for tok in rows[3].replace(",", " ").split()]
    if len(cvec) != nvars:
        raise ValueError("SDPA objective line does not match variable count")
    found = [{} for _ in sizes]  # per block: (matno, i, j) -> value, i <= j, 0-based
    for line in rows[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ValueError(f"bad SDPA entry line: {line!r}")
        k, b, i, j, v = int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]), float(toks[4])
        if not (0 <= k <= nvars and 1 <= b <= nblocks):
            raise ValueError(f"SDPA matrix or block number out of range: {line!r}")
        dim = abs(sizes[b - 1])
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"SDPA entry index out of range: {line!r}")
        if sizes[b - 1] < 0 and i != j:
            raise ValueError("off-diagonal entry in a diagonal block")
        key = (k, min(i, j) - 1, max(i, j) - 1)
        if key in found[b - 1]:  # neither summed nor replaced, in any block
            raise ValueError(f"repeated SDPA entry: {line!r}")
        found[b - 1][key] = v
    prog = ConicProgram(nvars)
    prog.c = np.array(cvec)
    for size, items in zip(sizes, found):
        if size < 0:  # diagonal block -> inequality rows
            row_coeffs = [dict() for _ in range(-size)]
            diag_rhs = np.zeros(-size)
            for (k, i, _), v in items.items():
                if k == 0:
                    diag_rhs[i] = v
                else:
                    row_coeffs[i][k - 1] = v
            for coeff, rhs in zip(row_coeffs, diag_rhs):
                prog.add_ineq(coeff, rhs)
        else:
            const = {(i, j): -v for (k, i, j), v in items.items() if k == 0}
            entries = {(k - 1, i, j): v for (k, i, j), v in items.items() if k != 0}
            prog.add_block(size, entries, const)
    return prog
