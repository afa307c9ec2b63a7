"""Primal-dual interior-point solver for linear + PSD-block cone programs.

Solves   min c'x  s.t.  A x = b,  G x + s = h,  s in K
with K = R_+^l x S_+^{m_1} x ... x S_+^{m_J}, via the homogeneous self-dual
embedding: Nesterov-Todd scaling, Mehrotra predictor-corrector, and an LU
factorization of the reduced KKT system with a static-regularization fallback
plus iterative refinement.  Equalities enter the KKT system directly.  KKT
systems of at most _KKT.EXTENDED_DIM are factored dense, because only they
may need the extended-precision LU below, which works on the dense matrix;
larger ones, about 1% nonzero, are factored sparsely (splu) on a sparsity
pattern built once per solve.

Each KKT solve is one refinement loop against the residual accumulated in
long double: six passes on the double-precision LU; if they stall on a small
system, the solve starts over once on an extended-precision LU of the same
matrix and runs ten passes, and once that LU exists, later solves on the
matrix run their ten passes on it from the start.

Cone vectors (s, z, h and every direction) are flat float64 arrays: the
orthant entries, then each PSD block's entries row by row (_Cone), and G is
one CSR matrix, as in the standard form of CVXOPT and ECOS.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .program import ConicProgram


@dataclass
class SolverConfig:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iter: int = 200
    gmc_denominator_cap: int = 1 << 16

    def __post_init__(self):
        if min(self.feas_tol, self.gap_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolveResult:
    status: str  # optimal, infeasible, unbounded, max_iter, numerical_failure
    primal: float = math.nan
    dual: float = math.nan
    x: np.ndarray | None = None
    y_eq: np.ndarray | None = None
    z_lin: np.ndarray | None = None
    z_psd: list = field(default_factory=list)
    s_lin: np.ndarray | None = None
    s_psd: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    history: list = field(default_factory=list)

    @property
    def value(self) -> float:
        return self.primal


def _inf_norm(v) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _sym(M):
    return 0.5 * (M + M.T)


class _Cone:
    """Layout of R^l x S^{m_1} x ... x S^{m_J} in one flat array.

    A cone vector holds the l orthant entries, then each block's m*m entries
    row by row; lin and mats give views of these sections.
    """

    def __init__(self, l: int, sizes: list):
        self.l = l
        self.sizes = sizes
        self.offsets = np.cumsum([l] + [m * m for m in sizes])  # block starts, then the end

    def lin(self, v):
        return v[: self.l]

    def mats(self, v):
        return [v[o:o + m * m].reshape(m, m) for o, m in zip(self.offsets, self.sizes)]

    def stack(self, lin, mats):
        return np.concatenate([lin, *(M.ravel() for M in mats)])

    def identity(self):
        e = np.zeros(self.offsets[-1])
        e[: self.l] = 1.0
        for M in self.mats(e):
            np.fill_diagonal(M, 1.0)
        return e


class InconsistentEqualities(Exception):
    """Raised by presolve when the equality system has no solution."""


class _StandardForm:
    """Array view of a lowered ConicProgram, equilibrated for the solver.

    Presolve drops linearly dependent equality rows (rejecting inconsistent
    systems outright).  Columns, rows (a PSD block's rows share one scalar,
    to preserve the cone), and the objective are rescaled to O(1); the solver
    works on the scaled data and the recovery vectors map solutions and
    duals back.  G is one CSR matrix: the linear rows, then -vec(F_j) for
    each PSD block F(x) = C + sum_j x_j F_j.
    """

    def __init__(self, prog: ConicProgram):
        if prog.gmcs:
            raise ValueError("lower the program before solving")
        n = prog.ncols
        if n == 0:
            raise ValueError("program has no variables")
        self.n = n
        self.A = np.zeros((len(prog.eqs), n))
        self.b = np.zeros(len(prog.eqs))
        for i, row in enumerate(prog.eqs):
            for j, cval in row.coeff.items():
                self.A[i, j] = cval
            self.b[i] = row.rhs
        self.eq_total = len(prog.eqs)
        self.eq_keep = list(range(self.eq_total))
        self._drop_dependent_equalities()
        self.l = len(prog.ineqs)
        self.cone = _Cone(self.l, [blk.size for blk in prog.blocks])
        self.nu = self.l + sum(self.cone.sizes)
        if self.nu == 0:
            raise ValueError("program has no cone constraints")
        # linear rows a'x >= rhs become slacks s = a'x - rhs, i.e. G = -a, h = -rhs
        indptr = np.cumsum([0] + [len(row.coeff) for row in prog.ineqs])
        indices = np.fromiter((j for row in prog.ineqs for j in row.coeff), int, indptr[-1])
        data = np.fromiter((-v for row in prog.ineqs for v in row.coeff.values()), float,
                           indptr[-1])
        pieces = [sps.csr_array((data, indices, indptr), shape=(self.l, n))]
        h = [-np.array([row.rhs for row in prog.ineqs], dtype=float)]
        block_cols = []
        for blk in prog.blocks:
            m, cols = blk.size, np.array(sorted(blk.coeff), dtype=int)
            F2 = np.array([0.5 * (blk.coeff[j] + blk.coeff[j].T) for j in cols])
            P = sps.csr_array(-F2.reshape(len(cols), m * m).T)
            pieces.append(sps.csr_array((P.data, cols[P.indices], P.indptr), shape=(m * m, n)))
            h.append(_sym(blk.const).ravel())
            block_cols.append(cols)
        self.G = sps.vstack(pieces, format="csr")
        self.G.eliminate_zeros()
        self.G.sort_indices()
        self.h = np.concatenate(h)
        self.c = np.asarray(prog.c, float).copy()
        self._equilibrate()
        # loop-invariant forms of the scaled data: each block's coefficients
        # as a (columns x m*m) matrix with its contraction path for the KKT
        # build (the path depends only on the shapes), long-double copies for
        # the extended-precision residual, and the dense linear rows that the
        # dense KKT build takes.  The transposes are views of the same arrays,
        # held because making a view costs more than a product with it
        self.blocks = [(m, cols, (-self.G[o:o + m * m][:, cols].T).toarray())
                       for m, cols, o in zip(self.cone.sizes, block_cols, self.cone.offsets)]
        self.paths = [np.einsum_path("ab,nbc,cd->nad", np.empty((m, m)),
                                     F2.reshape(len(cols), m, m), np.empty((m, m)),
                                     optimize=True)[0] for m, cols, F2 in self.blocks]
        ld = np.longdouble
        self.GT = self.G.T
        self.A_ld, self.G_ld = sps.csr_array(self.A).astype(ld), self.G.astype(ld)
        self.AT_ld, self.GT_ld = self.A_ld.T, self.G_ld.T
        self.kkt_pattern = _KKTPattern(self) \
            if n + self.A.shape[0] > _KKT.EXTENDED_DIM else None
        self.Gl = self.G[: self.l].toarray() if self.kkt_pattern is None else None

    def _drop_dependent_equalities(self):
        p = self.A.shape[0]
        if p == 0:
            return
        # the rank is read off the diagonal of a column-pivoted QR of A', whose
        # pivots also pick the rows to keep
        R, piv = sla.qr(self.A.T, pivoting=True, mode="r")
        tol = 1e-12 * max(1.0, np.max(np.abs(self.A)))
        rank = int(np.count_nonzero(np.abs(np.diag(R)) > tol))
        if rank == p:
            return
        x_star, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        resid = self.b - self.A @ x_star
        if np.max(np.abs(resid)) > 1e-10 * (1.0 + np.max(np.abs(self.b))):
            raise InconsistentEqualities(resid)
        keep = sorted(piv[:rank])
        self.eq_keep = [int(i) for i in keep]
        self.A = self.A[self.eq_keep]
        self.b = self.b[self.eq_keep]

    def expand_eq_duals(self, y: np.ndarray) -> np.ndarray:
        """Duals for the original equality list; dropped rows get zero."""
        full = np.zeros(self.eq_total)
        full[self.eq_keep] = y
        return full

    def _equilibrate(self):
        G = self.G
        colmax = np.max(np.abs(self.A), axis=0, initial=0.0)
        np.maximum.at(colmax, G.indices, np.abs(G.data))
        # a column in no constraint; with a cost it is a ray of unboundedness
        self.untouched = colmax == 0.0
        colmax[self.untouched] = 1.0
        self.dcol = np.clip(1.0 / np.sqrt(colmax), 1e-8, 1e8)
        self.A *= self.dcol[None, :]
        G.data *= self.dcol[G.indices]
        self.c *= self.dcol
        # row scalings after column pass
        rmax = np.maximum(np.max(np.abs(self.A), axis=1, initial=0.0), np.abs(self.b))
        rmax[rmax == 0.0] = 1.0
        self.deq = 1.0 / rmax
        self.A *= self.deq[:, None]
        self.b *= self.deq
        rows = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
        rmax = np.abs(self.h)
        np.maximum.at(rmax, rows, np.abs(G.data))
        for M in self.cone.mats(rmax):
            M[...] = M.max()
        rmax[rmax == 0.0] = 1.0
        self.drow = 1.0 / rmax
        G.data *= self.drow[rows]
        self.h *= self.drow
        cmax = float(np.max(np.abs(self.c))) if np.any(self.c) else 1.0
        self.obj_scale = 1.0 / cmax
        self.c *= self.obj_scale

    def unscale_solution(self, X, Y, S, Z):
        """Map a scaled primal-dual point back to the original data."""
        return (self.dcol * X, self.deq * Y / self.obj_scale,
                S / self.drow, self.drow * Z / self.obj_scale)


class _Scaling:
    """Nesterov-Todd scaling for the current (s, z) pair."""

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        self.w2 = cone.lin(s) / cone.lin(z)  # W'W diag
        self.lam_lin = np.sqrt(cone.lin(s) * cone.lin(z))
        self.R = []
        self.Rinv = []
        self.lam_mats = []
        self.Wmat = []
        self.Winv = []
        for S, Z in zip(cone.mats(s), cone.mats(z)):
            Ls = np.linalg.cholesky(S)
            Lz = np.linalg.cholesky(Z)
            U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
            sighalf = np.sqrt(sig)
            R = Ls @ Vt.T / sighalf
            Rinv = (U / sighalf).T @ Lz.T
            self.R.append(R)
            self.Rinv.append(Rinv)
            self.lam_mats.append(sig)
            self.Wmat.append((R @ R.T).astype(np.longdouble))  # W'W, used in long double
            self.Winv.append(Rinv.T @ Rinv)
        # long-double copies for the extended-precision products
        self.w2_ld = self.w2.astype(np.longdouble)
        self.R_ld = [R.astype(np.longdouble) for R in self.R]

    def scale_z(self, z):
        """z-bar = W z; maps the current z to lambda."""
        cone = self.cone
        return cone.stack(np.sqrt(self.w2) * cone.lin(z),
                          [_sym(R.T @ M @ R) for R, M in zip(self.R, cone.mats(z))])

    def scale_s(self, s):
        """s-bar = W^{-T} s; maps the current s to lambda."""
        cone = self.cone
        return cone.stack(cone.lin(s) / np.sqrt(self.w2),
                          [_sym(Ri @ M @ Ri.T) for Ri, M in zip(self.Rinv, cone.mats(s))])

    def WtW_inv_apply(self, v):
        cone = self.cone
        return cone.stack(cone.lin(v) / self.w2,
                          [_sym(Wi @ M @ Wi) for Wi, M in zip(self.Winv, cone.mats(v))])

    def WtW_apply_ld(self, v):
        """W'W v in long double, for v in long double."""
        cone = self.cone
        return cone.stack(self.w2_ld * cone.lin(v),
                          [Wm @ M @ Wm for Wm, M in zip(self.Wmat, cone.mats(v))])

    def lam(self):
        return self.cone.stack(self.lam_lin, [np.diag(sig) for sig in self.lam_mats])

    def lam_solve(self, d):
        """Solve lambda o u = d for u in the scaled space."""
        cone = self.cone
        return cone.stack(cone.lin(d) / self.lam_lin,
                          [D / (0.5 * (sig[:, None] + sig[None, :]))
                           for sig, D in zip(self.lam_mats, cone.mats(d))])

    def mult_Wt_lam_solve_extended(self, ds_target):
        """q = W'((lambda o)^{-1} ds_target), computed in extended precision.

        This vector has norm growing like 1/mu near convergence; it enters
        both the reduced KKT right-hand side and the recovery of ds, and the
        two uses must agree or the mismatch pollutes the primal cone
        residual.  Both use the same q: the products are accumulated in long
        double, and the result is rounded to double once, when returned.
        """
        ld = np.longdouble
        cone = self.cone
        u = self.lam_solve(ds_target).astype(ld)
        return cone.stack(np.sqrt(self.w2_ld) * cone.lin(u),
                          [_sym(R @ U @ R.T) for R, U in zip(self.R_ld, cone.mats(u))]
                          ).astype(float)

    def ds_from_dz(self, q, dz):
        """ds = q - W'W dz in extended precision (q from the helper above)."""
        ds = q - self.WtW_apply_ld(dz.astype(np.longdouble))
        for M in self.cone.mats(ds):
            M[...] = _sym(M)
        return ds.astype(float)

    def step_to_boundary(self, d) -> float:
        """Largest t with lambda + t*d in the cone."""
        cone = self.cone
        worst = float(np.max(-cone.lin(d) / self.lam_lin, initial=0.0))
        for sig, D in zip(self.lam_mats, cone.mats(d)):
            sig = np.sqrt(sig)
            worst = max(worst, float(-np.linalg.eigvalsh(_sym(D / np.outer(sig, sig)))[0]))
        if worst <= 0.0:
            return math.inf
        return 1.0 / worst


def _jordan(cone: _Cone, u, v):
    return cone.stack(cone.lin(u) * cone.lin(v),
                      [0.5 * (U @ V + V @ U) for U, V in zip(cone.mats(u), cone.mats(v))])


class _ExtendedLU:
    """Partially pivoted LU in extended precision for small KKT systems.

    Double-precision factorizations stop refining once the KKT condition
    number approaches 1/eps; near the central-path endgame that caps the
    attainable residuals just above tight tolerances.  An 80-bit
    factorization pushes the cap out by roughly four orders of magnitude.
    """

    def __init__(self, M: np.ndarray):
        A = M.astype(np.longdouble).copy()
        n = A.shape[0]
        swaps = np.arange(n)
        for k in range(n - 1):
            p = k + int(np.argmax(np.abs(A[k:, k])))
            if p != k:
                A[[k, p]] = A[[p, k]]
                swaps[[k, p]] = swaps[[p, k]]
            akk = A[k, k]
            if akk == 0.0:
                raise np.linalg.LinAlgError("singular KKT matrix")
            A[k + 1:, k] /= akk
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
        if A[n - 1, n - 1] == 0.0:
            raise np.linalg.LinAlgError("singular KKT matrix")
        self.A = A
        self.perm = swaps

    def solve(self, b: np.ndarray) -> np.ndarray:
        A = self.A
        n = A.shape[0]
        x = b.astype(np.longdouble)[self.perm]
        for k in range(n - 1):
            x[k + 1:] -= A[k + 1:, k] * x[k]
        for k in range(n - 1, -1, -1):
            if k < n - 1:
                x[k] -= A[k, k + 1:] @ x[k + 1:]
            x[k] /= A[k, k]
        return x.astype(float)


class _KKTPattern:
    """CSC sparsity pattern of the KKT matrix [[H, A'], [A, 0]] of one solve.

    H = Gl'(W'W)^{-1}Gl + the blocks' Schur complements changes every
    iteration, but where it can be nonzero does not: the union of Gl'Gl, each
    PSD block's columns x columns and A, plus the whole diagonal (for the
    shift fallback).  The pattern is built once per solve together with a map
    from each contribution to its slots in the CSC data array, so an iteration
    only fills in values.
    """

    def __init__(self, sf: _StandardForm):
        n, p = sf.n, sf.A.shape[0]
        N = n + p
        # coordinates of every contribution: diagonal, linear rows, blocks, A.
        # Row k of Gl adds Gl[k, i] Gl[k, j] / w2[k] at (i, j) for each pair
        # (e1, e2) of its stored entries
        Gl = sf.G[: sf.l]
        entry_row = np.repeat(np.arange(sf.l), np.diff(Gl.indptr))
        count = np.diff(Gl.indptr)[entry_row]  # entries in each entry's row
        e1 = np.repeat(np.arange(Gl.nnz), count)
        lin_rows = entry_row[e1]
        # e2 runs over the row's entries once for each e1
        e2 = Gl.indptr[lin_rows] + np.arange(len(e1)) - np.repeat(np.cumsum(count) - count,
                                                                   count)
        blk = [np.meshgrid(cols, cols, indexing="ij") for _, cols, _ in sf.blocks]
        ai, aj = np.nonzero(sf.A)
        diag = np.arange(N)
        rows = np.concatenate([diag, Gl.indices[e1], *(i.ravel() for i, _ in blk),
                               n + ai, aj])
        cols = np.concatenate([diag, Gl.indices[e2], *(j.ravel() for _, j in blk),
                               aj, n + ai])
        keys, slot = np.unique(cols * N + rows, return_inverse=True)
        self.indices = (keys % N).astype(np.int32)
        self.col = keys // N  # column of each stored entry
        self.indptr = np.searchsorted(self.col, np.arange(N + 1)).astype(np.int32)
        self.shape = (N, N)
        # where each contribution goes in the data array
        self.diag = slot[:N]
        k = N + len(e1)
        self.lin = sps.csr_array((Gl.data[e1] * Gl.data[e2], (slot[N:k], lin_rows)),
                                 shape=(len(keys), sf.l))
        self.blocks = []
        for i, _ in blk:
            self.blocks.append(slot[k:k + i.size].reshape(i.shape))
            k += i.size
        self.base = np.zeros(len(keys))  # the fixed A values
        self.base[slot[k:]] = np.concatenate([sf.A[ai, aj]] * 2)

    def matrix(self, w2: np.ndarray, Hbs: list) -> sps.csc_array:
        """The KKT matrix for the scaling W'W (diagonal w2 on the linear rows)
        and the Schur complements Hb of the blocks, in order."""
        data = self.base + self.lin @ (1.0 / w2)
        for slots, Hb in zip(self.blocks, Hbs):
            data[slots] += Hb
        return sps.csc_array((data, self.indices, self.indptr), shape=self.shape)


class _KKT:
    """Factorization of [[H, A'], [A, 0]] with H = G'(W'W)^{-1}G.

    Systems of at most EXTENDED_DIM are formed and factored dense: only they
    may need the extended-precision LU, which works on the dense matrix.
    Larger systems are about 1% nonzero; they are filled into the solve's
    fixed sparsity pattern (_KKTPattern) and factored with splu.  Factoring
    the small systems sparsely as well turned a dense(2,6)/C solve into a
    numerical failure, with or without the extended LU behind it, and was
    no faster with it.  Both factorizations use the same symmetric
    equilibration and share the pivot-floor test and the shift fallback.
    """

    REG = 1e-10
    EXTENDED_DIM = 420  # dense and extended-precision factorization up to this size

    def __init__(self, sf: _StandardForm, scal: _Scaling):
        self.sf = sf
        self.scal = scal
        n, p = sf.n, sf.A.shape[0]
        Hbs = []  # Schur complement of each block
        for (m, cols, F2), path, Wi in zip(sf.blocks, sf.paths, scal.Winv):
            T = np.einsum("ab,nbc,cd->nad", Wi, F2.reshape(len(cols), m, m), Wi, optimize=path)
            Hbs.append(np.dot(F2, T.transpose(1, 2, 0).reshape(m * m, len(cols))))
        self.n, self.p = n, p
        self.xlu = None
        self._xlu_failed = False
        pattern = sf.kkt_pattern
        if pattern is None:
            H = np.zeros((n, n))
            H += (sf.Gl.T / scal.w2) @ sf.Gl
            for (_, cols, _), Hb in zip(sf.blocks, Hbs):
                H[np.ix_(cols, cols)] += Hb
            M = np.zeros((n + p, n + p))
            M[:n, :n] = H
            M[:n, n:] = sf.A.T
            M[n:, :n] = sf.A
            # symmetric diagonal equilibration before factorizing
            absM = np.abs(M)
            d = np.sqrt(np.maximum(absM.max(axis=0), 1e-300))
            self.d = 1.0 / d
            Ms = M * self.d[:, None] * self.d[None, :]
        else:
            M = pattern.matrix(scal.w2, Hbs)
            d = np.sqrt(np.maximum(np.maximum.reduceat(np.abs(M.data), M.indptr[:-1]),
                                   1e-300))
            self.d = 1.0 / d
            Ms = sps.csc_array((M.data * self.d[M.indices] * self.d[pattern.col],
                                M.indices, M.indptr), shape=M.shape)
        self.M = M
        self.Ms = Ms
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                self._solve, pivots, factors = self._factor(Ms)
                pivots = np.abs(pivots)
                pivot_floor = 1e-15 * max(1.0, float(pivots.max()))
                singular = not all(np.all(np.isfinite(f)) for f in factors) or (
                    float(pivots.min()) <= pivot_floor)
            except np.linalg.LinAlgError:
                singular = True
            if singular:
                # (near-)singular: fall back to a tiny quasidefinite shift
                self._solve = self._factor(self._shifted())[0]

    def _factor(self, Ms):
        """A solve function of the LU of Ms, its pivots, and its factor arrays."""
        if isinstance(Ms, np.ndarray):
            lu = sla.lu_factor(Ms)
            return partial(sla.lu_solve, lu), np.diag(lu[0]), (lu[0],)
        try:
            lu = spla.splu(Ms)
        except RuntimeError as exc:  # splu stops at an exactly zero pivot
            raise np.linalg.LinAlgError("singular KKT matrix") from exc
        return lu.solve, lu.U.diagonal(), (lu.L.data, lu.U.data)

    def _shifted(self):
        """The equilibrated matrix with a tiny quasidefinite shift."""
        n, p = self.n, self.p
        Mreg = self.Ms.copy()
        if isinstance(Mreg, np.ndarray):
            Mreg[:n, :n] += self.REG * np.eye(n)
            Mreg[n:, n:] -= self.REG * np.eye(p)
        else:
            diag = self.sf.kkt_pattern.diag
            Mreg.data[diag[:n]] += self.REG
            Mreg.data[diag[n:]] -= self.REG
        return Mreg

    def ensure_extended(self) -> bool:
        """Build the extended-precision factorization on demand."""
        if self.xlu is not None:
            return True
        if self._xlu_failed or self.Ms.shape[0] > self.EXTENDED_DIM:
            return False
        try:
            self.xlu = _ExtendedLU(self.Ms)
        except np.linalg.LinAlgError:
            try:
                self.xlu = _ExtendedLU(self._shifted())
            except np.linalg.LinAlgError:
                self._xlu_failed = True
                return False
        return True

    def _lin_solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise np.linalg.LinAlgError("non-finite KKT right-hand side")
        if self.xlu is not None:
            return self.d * self.xlu.solve(self.d * rhs)
        return self.d * self._solve(self.d * rhs)

    def _raw_solve(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        # the factored solve works in double precision, and w is a double
        # vector (q and w_tilde were rounded to double where they were made);
        # accuracy comes from the extended-precision refinement loop around it
        sf, scal = self.sf, self.scal
        rhs = np.concatenate([u + sf.GT @ scal.WtW_inv_apply(w), v])
        sol = self._lin_solve(rhs)
        resid = rhs - self.M @ sol
        if np.max(np.abs(resid)) > 1e-13 * max(1.0, float(np.max(np.abs(rhs)))):
            sol += self._lin_solve(resid)
        dx, dy = sol[: self.n], sol[self.n:]
        dz = scal.WtW_inv_apply(sf.G @ dx - w)
        return dx, dy, dz

    def _full_residual(self, u, v, w, dx, dy, dz):
        """KKT residual with extended-precision accumulation throughout.

        Near convergence dz is huge while the target residual is tiny, so
        double-precision products would floor the attainable dual accuracy.
        """
        sf, ld = self.sf, np.longdouble
        dxl, dzl = dx.astype(ld), dz.astype(ld)
        r1 = (u.astype(ld) - (sf.AT_ld @ dy.astype(ld) + sf.GT_ld @ dzl)).astype(float)
        r2 = (v.astype(ld) - sf.A_ld @ dxl).astype(float)
        r3 = (w.astype(ld) - sf.G_ld @ dxl + self.scal.WtW_apply_ld(dzl)).astype(float)
        return r1, r2, r3

    def solve3(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """Solve the 3x3 system, refining against the full KKT residual.

        One refinement loop: six passes on the double-precision LU; if they
        stall and the system is small enough (EXTENDED_DIM), the solve starts
        over once on the extended-precision LU of the same matrix and runs ten
        passes.  Once that LU exists, later calls run their ten passes on it
        from the start.  Returns the pass with the smallest residual.
        """
        # the meaningful accuracy scale excludes |w|: the cone right-hand
        # side grows like 1/mu while the step equations need absolute
        # accuracy at the residual level
        tol = 1e-13 * max(1.0, _inf_norm(u), _inf_norm(v))
        passes = 6 if self.xlu is None else 10
        best = None
        while True:
            dx, dy, dz = self._raw_solve(u, v, w)
            for k in range(passes):
                r1, r2, r3 = self._full_residual(u, v, w, dx, dy, dz)
                err = max(_inf_norm(r1), _inf_norm(r2), _inf_norm(r3))
                if best is None or err < best[0]:
                    best = (err, dx.copy(), dy.copy(), dz.copy())
                if err <= tol:
                    return best[1:]
                if k + 1 < passes:
                    cx, cy, cz = self._raw_solve(r1, r2, r3)
                    dx = dx + cx
                    dy = dy + cy
                    dz = dz + cz
            if passes == 10 or not self.ensure_extended():
                return best[1:]
            passes = 10


def solve(prog: ConicProgram, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a lowered conic program (no GMC records left)."""
    cfg = cfg or SolverConfig()
    try:
        sf = _StandardForm(prog)
    except InconsistentEqualities:
        return SolveResult("infeasible", math.inf, math.inf,
                           residuals={"certificate": 0.0}, iterations=0)
    if np.any(sf.c[sf.untouched]):
        # a column in no constraint, with a cost: moving it against its cost
        # is a ray with c'x < 0, A x = 0 and G x = 0
        return SolveResult("unbounded", -math.inf, -math.inf,
                           residuals={"certificate": 0.0}, iterations=0)
    return _solve_hsde(sf, cfg)


def solve_relaxation(prog: ConicProgram, cfg: SolverConfig | None = None):
    """Lower a freshly assembled program and solve it.

    Returns (lowered_program, result); duals in the result are indexed
    against the lowered program's constraint lists.
    """
    cfg = cfg or SolverConfig()
    lowered = prog.lowered(cfg.gmc_denominator_cap)
    return lowered, solve(lowered, cfg)


def _solve_hsde(sf: _StandardForm, cfg: SolverConfig) -> SolveResult:
    cone = sf.cone
    c, A, b, G, GT, h = sf.c, sf.A, sf.b, sf.G, sf.GT, sf.h
    x = np.zeros(sf.n)
    y = np.zeros(A.shape[0])
    s = cone.identity()
    z = cone.identity()
    tau, kappa = 1.0, 1.0
    nu1 = sf.nu + 1
    norm_b = max(1.0, _inf_norm(b))
    norm_h = max(1.0, _inf_norm(h))
    norm_c = max(1.0, _inf_norm(c))
    history = []
    best_state = None
    best_merit = math.inf
    stall = 0

    def metrics(x, y, s, z, tau):
        """The point scaled by 1/tau, its costs, and its relative residuals.

        The residuals map primal, dual and gap, in that order; the merit of a
        point is their max.
        """
        X, Y = x / tau, y / tau
        S, Z = s * (1.0 / tau), z * (1.0 / tau)
        pcost = float(c @ X)
        dcost = -float(b @ Y) - float(h @ Z)
        res = {
            "primal": max(_inf_norm(A @ X - b) / norm_b, _inf_norm(G @ X + S - h) / norm_h),
            "dual": _inf_norm(A.T @ Y + GT @ Z + c) / norm_c,
            "gap": abs(pcost - dcost) / (1.0 + abs(pcost)),
        }
        return (X, Y, S, Z), pcost, dcost, res

    def embedding(x, y, s, z, tau, kappa):
        """G x and the residuals and barrier parameter of the embedding."""
        Gx = G @ x
        rx = A.T @ y + GT @ z + c * tau
        ry = A @ x - b * tau
        rz = Gx + s - tau * h
        rtau = float(c @ x) + float(b @ y) + float(h @ z) + kappa
        mu = (float(s @ z) + tau * kappa) / nu1
        return Gx, rx, ry, rz, rtau, mu

    def result_from(state, status, iterations):
        bx, by, bs, bz, btau, _ = state
        (X, Y, S, Z), pcost, dcost, res = metrics(bx, by, bs, bz, btau)
        res["complementarity"] = float(S @ Z)
        if (res["primal"] <= cfg.feas_tol and res["dual"] <= cfg.feas_tol
                and res["gap"] <= cfg.gap_tol):
            status = "optimal"
        X0, Y0, S0, Z0 = sf.unscale_solution(X, Y, S, Z)
        return SolveResult(
            status=status, primal=pcost / sf.obj_scale, dual=dcost / sf.obj_scale,
            x=X0, y_eq=sf.expand_eq_duals(Y0),
            z_lin=cone.lin(Z0), z_psd=cone.mats(Z0),
            s_lin=cone.lin(S0), s_psd=cone.mats(S0),
            residuals=res, iterations=iterations, history=history,
        )

    def current_result(status, iterations):
        state = best_state or (x, y, s, z, tau, kappa)
        return result_from(state, status, iterations)

    it = 0
    for it in range(cfg.max_iter):
        Gx, rx, ry, rz, rtau, mu = embedding(x, y, s, z, tau, kappa)

        _, pcost, dcost, res = metrics(x, y, s, z, tau)
        pres, dres, gap_rel = res["primal"], res["dual"], res["gap"]
        history.append((pcost / sf.obj_scale, dcost / sf.obj_scale, pres, dres))
        merit = max(pres, dres, gap_rel)
        if pres <= cfg.feas_tol and dres <= cfg.feas_tol and gap_rel <= cfg.gap_tol:
            return result_from((x, y, s, z, tau, kappa), "optimal", it)
        if best_state is not None and merit > 10.0 * best_merit and best_merit < 1e-4:
            # endgame breakdown: the solve ends with the best iterate
            return current_result("numerical_failure", it)
        if merit < best_merit * 0.999:
            best_merit = merit
            best_state = (x.copy(), y.copy(), s.copy(), z.copy(), tau, kappa)
            stall = 0
        else:
            stall += 1
        if stall >= 15:
            return current_result("numerical_failure", it)

        # infeasibility / unboundedness certificates from the embedding
        by_hz = float(b @ y) + float(h @ z)
        if by_hz < -1e-12:
            cert = _inf_norm(A.T @ y + GT @ z)
            if cert / (-by_hz) <= cfg.feas_tol * norm_c:
                return SolveResult("infeasible", math.inf, math.inf,
                                   residuals={"certificate": cert / (-by_hz)},
                                   iterations=it, history=history)
        cx = float(c @ x)
        if cx < -1e-12:
            cert = max(_inf_norm(A @ x), _inf_norm(Gx + s))
            if cert / (-cx) <= cfg.feas_tol * max(norm_b, norm_h):
                return SolveResult("unbounded", -math.inf, -math.inf,
                                   residuals={"certificate": cert / (-cx)},
                                   iterations=it, history=history)

        sz_lin = np.concatenate([cone.lin(s), cone.lin(z)])
        if not np.all((sz_lin > 0.0) & (sz_lin < math.inf)):
            return current_result("numerical_failure", it)
        try:
            scal = _Scaling(cone, s, z)
            kkt = _KKT(sf, scal)
            lam = scal.lam()
            dx2, dy2, dz2 = kkt.solve3(-c, b, h)
        except (np.linalg.LinAlgError, ValueError):
            return current_result("numerical_failure", it)

        def direction(ds_target, dkt_target, eta):
            q = scal.mult_Wt_lam_solve_extended(ds_target)
            w_tilde = (-np.longdouble(eta) * rz).astype(float) - q
            dx1, dy1, dz1 = kkt.solve3(-eta * rx, -eta * ry, w_tilde)
            den = float(c @ dx2) + float(b @ dy2) + float(h @ dz2) - kappa / tau
            num = -eta * rtau - float(c @ dx1) - float(b @ dy1) - float(h @ dz1) \
                - dkt_target / tau
            dtau = num / den
            dx = dx1 + dtau * dx2
            dy = dy1 + dtau * dy2
            dz = dz1 + dtau * dz2
            ds = scal.ds_from_dz(q, dz)
            dkappa = (dkt_target - kappa * dtau) / tau
            return dx, dy, dz, ds, dtau, dkappa

        def max_step(ds_bar, dz_bar, dtau, dkappa):
            """Largest step that keeps s, z, tau and kappa in their cones."""
            return min(
                scal.step_to_boundary(ds_bar),
                scal.step_to_boundary(dz_bar),
                tau / -dtau if dtau < 0 else math.inf,
                kappa / -dkappa if dkappa < 0 else math.inf,
            )

        # predictor
        try:
            lam_sq = _jordan(cone, lam, lam)
            dxa, dya, dza, dsa, dtaua, dkappaa = direction(-lam_sq, -tau * kappa, 1.0)
        except (np.linalg.LinAlgError, ValueError):
            return current_result("numerical_failure", it)
        dz_bar = scal.scale_z(dza)
        ds_bar = scal.scale_s(dsa)
        alpha_a = min(1.0, max_step(ds_bar, dz_bar, dtaua, dkappaa))
        mu_aff = (
            float((s + alpha_a * dsa) @ (z + alpha_a * dza))
            + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
        ) / nu1
        sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

        # corrector
        try:
            ds_comb = -lam_sq - _jordan(cone, ds_bar, dz_bar) + sigma * mu * cone.identity()
            dkt_comb = -tau * kappa - dtaua * dkappaa + sigma * mu
            dx, dy, dz, ds, dtau, dkappa = direction(ds_comb, dkt_comb, 1.0 - sigma)
        except (np.linalg.LinAlgError, ValueError):
            return current_result("numerical_failure", it)
        alpha = min(1.0, 0.99 * max_step(scal.scale_s(ds), scal.scale_z(dz), dtau, dkappa))
        if not math.isfinite(alpha) or alpha <= 1e-14:
            return current_result("numerical_failure", it)
        if best_merit < 1e-4:
            # endgame: pick the step fraction with the best balanced merit
            cands = [alpha, 0.7 * alpha, 0.45 * alpha, 0.25 * alpha]
            scored = []
            for a in cands:
                try:
                    *_, res_a = metrics(x + a * dx, y + a * dy, s + a * ds,
                                        z + a * dz, tau + a * dtau)
                    m_a = max(res_a.values())
                except (FloatingPointError, ZeroDivisionError):
                    m_a = math.inf
                scored.append((m_a, a))
            scored.sort()
            alpha = scored[0][1]
        x += alpha * dx
        y += alpha * dy
        s += alpha * ds
        z += alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa
        if tau <= 0 or kappa < 0:
            return current_result("numerical_failure", it)

    return current_result("max_iter", cfg.max_iter)
