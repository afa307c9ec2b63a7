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

Cone vectors are kept in sections: a flat array for the orthant part and one
symmetric matrix per PSD block.
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


class _ConeVec:
    """A point in R^l x S^{m_1} x ... x S^{m_J}."""

    __slots__ = ("lin", "mats")

    def __init__(self, lin, mats):
        self.lin = np.asarray(lin, float)
        self.mats = [np.asarray(M, float) for M in mats]

    @classmethod
    def identity(cls, l, sizes):
        return cls(np.ones(l), [np.eye(m) for m in sizes])

    def copy(self):
        return _ConeVec(self.lin.copy(), [M.copy() for M in self.mats])

    def axpy(self, alpha, other):
        self.lin += alpha * other.lin
        for M, N in zip(self.mats, other.mats):
            M += alpha * N

    def combo(self, alpha, other):
        return _ConeVec(self.lin + alpha * other.lin,
                        [M + alpha * N for M, N in zip(self.mats, other.mats)])

    def dot(self, other) -> float:
        total = float(self.lin @ other.lin)
        for M, N in zip(self.mats, other.mats):
            total += float(np.dot(M.reshape(1, M.size), N.reshape(N.size, 1))[0, 0])
        return total

    def inf_norm(self) -> float:
        worst = float(np.max(np.abs(self.lin))) if self.lin.size else 0.0
        for M in self.mats:
            if M.size:
                worst = max(worst, float(np.max(np.abs(M))))
        return worst

    def scale(self, t):
        return _ConeVec(t * self.lin, [t * M for M in self.mats])


class InconsistentEqualities(Exception):
    """Raised by presolve when the equality system has no solution."""


class _StandardForm:
    """Array view of a lowered ConicProgram, equilibrated for the solver.

    Presolve drops linearly dependent equality rows (rejecting inconsistent
    systems outright).  Columns, rows, PSD blocks (one scalar each, to
    preserve the cone), and the objective are rescaled to O(1); the solver
    works on the scaled data and the recovery vectors map solutions and
    duals back.
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
        # linear rows a'x >= rhs become slacks s = a'x - rhs, i.e. G = -a, h = -rhs
        self.Gl = np.zeros((len(prog.ineqs), n))
        self.hl = np.zeros(len(prog.ineqs))
        for i, row in enumerate(prog.ineqs):
            for j, cval in row.coeff.items():
                self.Gl[i, j] = -cval
            self.hl[i] = -row.rhs
        self.blocks = []
        for blk in prog.blocks:
            cols = np.array(sorted(blk.coeff), dtype=int)
            F = np.stack([0.5 * (blk.coeff[j] + blk.coeff[j].T) for j in cols]) \
                if len(cols) else np.zeros((0, blk.size, blk.size))
            self.blocks.append([blk.size, cols, F, 0.5 * (blk.const + blk.const.T)])
        self.sizes = [m for m, _, _, _ in self.blocks]
        self.l = len(prog.ineqs)
        self.c = np.asarray(prog.c, float).copy()
        self.nu = self.l + sum(self.sizes)
        if self.nu == 0:
            raise ValueError("program has no cone constraints")
        self._equilibrate()
        # loop-invariant forms of the scaled data: each block's coefficient
        # stack as a (columns x m*m) matrix, long-double copies for the
        # extended-precision residual, and each block's contraction path for
        # the KKT build (it depends only on the shapes).  The transposes are
        # views of the same arrays, held because making a view costs more than
        # a product with it
        ld = np.longdouble
        self.F2 = [F.reshape(len(cols), m * m) for m, cols, F, _ in self.blocks]
        self.F2_ld = [F2.astype(ld) for F2 in self.F2]
        self.A_ld, self.Gl_ld = (sps.csr_array(M).astype(ld) for M in (self.A, self.Gl))
        self.AT_ld, self.GlT_ld = self.A_ld.T, self.Gl_ld.T
        self.paths = [np.einsum_path("ab,nbc,cd->nad", np.empty((m, m)), F,
                                     np.empty((m, m)), optimize=True)[0]
                      if len(cols) else None for m, cols, F, _ in self.blocks]
        self.kkt_pattern = _KKTPattern(self) \
            if n + self.A.shape[0] > _KKT.EXTENDED_DIM else None

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
        n = self.n
        self.deq = np.ones(self.A.shape[0])
        self.dlin = np.ones(self.l)
        self.dblk = np.ones(len(self.blocks))
        colmax = np.zeros(n)
        if self.A.size:
            colmax = np.maximum(colmax, np.max(np.abs(self.A), axis=0))
        if self.Gl.size:
            colmax = np.maximum(colmax, np.max(np.abs(self.Gl), axis=0))
        for m, cols, F, _ in self.blocks:
            if len(cols):
                colmax[cols] = np.maximum(
                    colmax[cols], np.max(np.abs(F), axis=(1, 2)))
        colmax[colmax == 0.0] = 1.0
        self.dcol = np.clip(1.0 / np.sqrt(colmax), 1e-8, 1e8)
        self.A *= self.dcol[None, :]
        self.Gl *= self.dcol[None, :]
        for blk in self.blocks:
            _, cols, F, _ = blk
            if len(cols):
                blk[2] = F * self.dcol[cols][:, None, None]
        self.c *= self.dcol
        # row scalings after column pass
        if self.A.size:
            rmax = np.maximum(np.max(np.abs(self.A), axis=1), np.abs(self.b))
            rmax[rmax == 0.0] = 1.0
            self.deq = 1.0 / rmax
            self.A *= self.deq[:, None]
            self.b *= self.deq
        if self.Gl.size:
            rmax = np.maximum(np.max(np.abs(self.Gl), axis=1), np.abs(self.hl))
            rmax[rmax == 0.0] = 1.0
            self.dlin = 1.0 / rmax
            self.Gl *= self.dlin[:, None]
            self.hl *= self.dlin
        for k, blk in enumerate(self.blocks):
            m, cols, F, C = blk
            bmax = max(float(np.max(np.abs(F))) if F.size else 0.0,
                       float(np.max(np.abs(C))) if C.size else 0.0)
            if bmax > 0.0:
                self.dblk[k] = 1.0 / bmax
                blk[2] = F * self.dblk[k]
                blk[3] = C * self.dblk[k]
        cmax = float(np.max(np.abs(self.c))) if np.any(self.c) else 1.0
        self.obj_scale = 1.0 / cmax
        self.c *= self.obj_scale

    def unscale_solution(self, X, Y, S, Z):
        """Map a scaled primal-dual point back to the original data."""
        X0 = self.dcol * X
        Y0 = self.deq * Y / self.obj_scale
        S0_lin = S.lin / self.dlin if self.l else S.lin
        Z0_lin = self.dlin * Z.lin / self.obj_scale if self.l else Z.lin
        S0_mats = [M / dk for M, dk in zip(S.mats, self.dblk)]
        Z0_mats = [M * dk / self.obj_scale for M, dk in zip(Z.mats, self.dblk)]
        return X0, Y0, _ConeVec(S0_lin, S0_mats), _ConeVec(Z0_lin, Z0_mats)

    def G_apply(self, x) -> _ConeVec:
        mats = []
        for (m, cols, _, _), F2 in zip(self.blocks, self.F2):
            M = -np.dot(x[cols].reshape(1, len(cols)), F2).reshape(m, m) if len(cols) \
                else np.zeros((m, m))
            mats.append(M)
        return _ConeVec(self.Gl @ x, mats)

    def GT_apply(self, q: _ConeVec) -> np.ndarray:
        out = self.Gl.T @ q.lin
        for (m, cols, _, _), F2, Q in zip(self.blocks, self.F2, q.mats):
            if len(cols):
                out[cols] += -np.dot(F2, Q.reshape(m * m, 1)).reshape(len(cols))
        return out

    def h_vec(self) -> _ConeVec:
        return _ConeVec(self.hl, [C for _, _, _, C in self.blocks])


class _Scaling:
    """Nesterov-Todd scaling for the current (s, z) pair."""

    def __init__(self, s: _ConeVec, z: _ConeVec):
        self.w2 = s.lin / z.lin if s.lin.size else np.zeros(0)  # W'W diag
        self.lam_lin = np.sqrt(s.lin * z.lin) if s.lin.size else np.zeros(0)
        self.R = []
        self.Rinv = []
        self.lam_mats = []
        self.Wmat = []
        self.Winv = []
        for S, Z in zip(s.mats, z.mats):
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

    def scale_z(self, z: _ConeVec) -> _ConeVec:
        """z-bar = W z; maps the current z to lambda."""
        mats = [R.T @ M @ R for R, M in zip(self.R, z.mats)]
        mats = [0.5 * (M + M.T) for M in mats]
        return _ConeVec(np.sqrt(self.w2) * z.lin, mats)

    def scale_s(self, s: _ConeVec) -> _ConeVec:
        """s-bar = W^{-T} s; maps the current s to lambda."""
        mats = [Ri @ M @ Ri.T for Ri, M in zip(self.Rinv, s.mats)]
        mats = [0.5 * (M + M.T) for M in mats]
        return _ConeVec(s.lin / np.sqrt(self.w2), mats)

    def WtW_inv_apply(self, v: _ConeVec) -> _ConeVec:
        mats = [Wi @ M @ Wi for Wi, M in zip(self.Winv, v.mats)]
        mats = [0.5 * (M + M.T) for M in mats]
        return _ConeVec(v.lin / self.w2, mats)

    def lam(self) -> _ConeVec:
        return _ConeVec(self.lam_lin, [np.diag(sig) for sig in self.lam_mats])

    def lam_solve(self, d: _ConeVec) -> _ConeVec:
        """Solve lambda o u = d for u in the scaled space."""
        lin = d.lin / self.lam_lin if d.lin.size else d.lin
        mats = []
        for sig, D in zip(self.lam_mats, d.mats):
            denom = 0.5 * (sig[:, None] + sig[None, :])
            mats.append(D / denom)
        return _ConeVec(lin, mats)

    def mult_Wt_lam_solve_extended(self, ds_target: _ConeVec) -> _ConeVec:
        """q = W'((lambda o)^{-1} ds_target), computed in extended precision.

        This vector has norm growing like 1/mu near convergence; it enters
        both the reduced KKT right-hand side and the recovery of ds, and the
        two uses must agree or the mismatch pollutes the primal cone
        residual.  Both use the same q: the products are accumulated in long
        double, and the result is rounded to double when it is wrapped (the
        _ConeVec constructor casts to float64).
        """
        ld = np.longdouble
        u = self.lam_solve(ds_target)
        lin = np.sqrt(self.w2_ld) * u.lin.astype(ld) if u.lin.size \
            else u.lin.astype(ld)
        mats = []
        for R, U in zip(self.R_ld, u.mats):
            M = R @ U.astype(ld) @ R.T
            mats.append(0.5 * (M + M.T))
        return _ConeVec(lin, mats)

    def ds_from_dz(self, q: _ConeVec, dz: _ConeVec) -> _ConeVec:
        """ds = q - W'W dz in extended precision (q from the helper above)."""
        ld = np.longdouble
        if q.lin.size:
            lin = (q.lin - self.w2_ld * dz.lin.astype(ld)).astype(float)
        else:
            lin = np.asarray(q.lin, float)
        mats = []
        for Wm, Q, Dz in zip(self.Wmat, q.mats, dz.mats):
            M = Q - Wm @ Dz.astype(ld) @ Wm
            M = 0.5 * (M + M.T)
            mats.append(M.astype(float))
        return _ConeVec(lin, mats)


def _jordan(u: _ConeVec, v: _ConeVec) -> _ConeVec:
    lin = u.lin * v.lin
    mats = [0.5 * (U @ V + V @ U) for U, V in zip(u.mats, v.mats)]
    return _ConeVec(lin, mats)


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


def _step_to_boundary(lam: _ConeVec, d: _ConeVec) -> float:
    """Largest t with lam + t*d in the cone, for lam interior (lam diag)."""
    worst = 0.0
    if lam.lin.size:
        ratios = -d.lin / lam.lin
        worst = max(worst, float(np.max(ratios)))
    for L, D in zip(lam.mats, d.mats):
        sig = np.sqrt(np.diag(L))
        M = D / np.outer(sig, sig)
        eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
        worst = max(worst, float(-eigs[0]))
    if worst <= 0.0:
        return math.inf
    return 1.0 / worst


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
        Gl = sps.csr_array(sf.Gl)
        entry_row = np.repeat(np.arange(sf.l), np.diff(Gl.indptr))
        count = np.diff(Gl.indptr)[entry_row]  # entries in each entry's row
        e1 = np.repeat(np.arange(Gl.nnz), count)
        lin_rows = entry_row[e1]
        # e2 runs over the row's entries once for each e1
        e2 = Gl.indptr[lin_rows] + np.arange(len(e1)) - np.repeat(np.cumsum(count) - count,
                                                                   count)
        blk = [np.meshgrid(cols, cols, indexing="ij") for _, cols, _, _ in sf.blocks
               if len(cols)]
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
        and the Schur complements Hb of the blocks with columns, in order."""
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
        Hbs = []  # Schur complement of each block with columns
        for (m, cols, F, _), F2, path, Wi in zip(sf.blocks, sf.F2, sf.paths, scal.Winv):
            if not len(cols):
                continue
            T = np.einsum("ab,nbc,cd->nad", Wi, F, Wi, optimize=path)
            Hbs.append(np.dot(F2, T.transpose(1, 2, 0).reshape(m * m, len(cols))))
        self.n, self.p = n, p
        self.xlu = None
        self._xlu_failed = False
        pattern = sf.kkt_pattern
        if pattern is None:
            H = np.zeros((n, n))
            if sf.l:
                H += (sf.Gl.T / scal.w2) @ sf.Gl
            for cols, Hb in zip((cols for _, cols, _, _ in sf.blocks if len(cols)), Hbs):
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
                pivot_floor = 1e-15 * max(1.0, float(pivots.max()) if pivots.size else 1.0)
                singular = not all(np.all(np.isfinite(f)) for f in factors) or (
                    pivots.size and float(pivots.min()) <= pivot_floor)
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

    def _raw_solve(self, u: np.ndarray, v: np.ndarray, w: _ConeVec):
        # the factored solve works in double precision, and w is a double
        # vector (q and w_tilde were rounded when wrapped as _ConeVec);
        # accuracy comes from the extended-precision refinement loop around it
        sf, scal = self.sf, self.scal
        rhs = np.concatenate([u + sf.GT_apply(scal.WtW_inv_apply(w)), v])
        sol = self._lin_solve(rhs)
        resid = rhs - self.M @ sol
        if np.max(np.abs(resid)) > 1e-13 * max(1.0, float(np.max(np.abs(rhs)))):
            sol += self._lin_solve(resid)
        dx, dy = sol[: self.n], sol[self.n:]
        dz = scal.WtW_inv_apply(sf.G_apply(dx).combo(-1.0, w))
        return dx, dy, dz

    def _full_residual(self, u, v, w, dx, dy, dz):
        """KKT residual with extended-precision accumulation throughout.

        Near convergence dz is huge while the target residual is tiny, so
        double-precision products would floor the attainable dual accuracy.
        """
        sf, scal = self.sf, self.scal
        ld = np.longdouble
        dxl = dx.astype(ld)
        gtz = sf.GlT_ld @ dz.lin.astype(ld) if sf.l else np.zeros(sf.n, dtype=ld)
        for (m, cols, _, _), F2, Dz in zip(sf.blocks, sf.F2_ld, dz.mats):
            if len(cols):
                gtz[cols] += -np.dot(F2, Dz.astype(ld).reshape(m * m, 1)).reshape(len(cols))
        r1 = (u.astype(ld) - (sf.AT_ld @ dy.astype(ld) + gtz)).astype(float)
        r2 = (v.astype(ld) - sf.A_ld @ dxl).astype(float)
        if sf.l:
            r3_lin = (w.lin.astype(ld)
                      - sf.Gl_ld @ dxl
                      + scal.w2_ld * dz.lin.astype(ld)).astype(float)
        else:
            r3_lin = w.lin
        r3_mats = []
        for (m, cols, _, _), F2, Wmat, Dz, Wk in zip(sf.blocks, sf.F2_ld, scal.Wmat,
                                                   dz.mats, w.mats):
            Gdx = -np.dot(dxl[cols].reshape(1, len(cols)), F2).reshape(m, m) \
                if len(cols) else np.zeros((m, m), dtype=ld)
            WtWdz = Wmat @ Dz.astype(ld) @ Wmat
            R = Wk.astype(ld) - Gdx + WtWdz
            r3_mats.append(R.astype(float))
        return r1, r2, _ConeVec(r3_lin, r3_mats)

    def solve3(self, u: np.ndarray, v: np.ndarray, w: _ConeVec):
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
        tol = 1e-13 * max(1.0, float(np.max(np.abs(u))) if u.size else 0.0,
                          float(np.max(np.abs(v))) if v.size else 0.0)
        passes = 6 if self.xlu is None else 10
        best = None
        while True:
            dx, dy, dz = self._raw_solve(u, v, w)
            for k in range(passes):
                r1, r2, r3 = self._full_residual(u, v, w, dx, dy, dz)
                err = max(float(np.max(np.abs(r1))),
                          float(np.max(np.abs(r2))) if r2.size else 0.0,
                          r3.inf_norm())
                if best is None or err < best[0]:
                    best = (err, dx.copy(), dy.copy(), dz.copy())
                if err <= tol:
                    return best[1:]
                if k + 1 < passes:
                    cx, cy, cz = self._raw_solve(r1, r2, r3)
                    dx = dx + cx
                    dy = dy + cy
                    dz = dz.combo(1.0, cz)
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
    n, p = sf.n, sf.A.shape[0]
    c, A, b = sf.c, sf.A, sf.b
    h = sf.h_vec()
    x = np.zeros(n)
    y = np.zeros(p)
    s = _ConeVec.identity(sf.l, sf.sizes)
    z = _ConeVec.identity(sf.l, sf.sizes)
    tau, kappa = 1.0, 1.0
    nu1 = sf.nu + 1
    norm_b = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    norm_h = max(1.0, h.inf_norm())
    norm_c = max(1.0, float(np.max(np.abs(c))))
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
        S, Z = s.scale(1.0 / tau), z.scale(1.0 / tau)
        pcost = float(c @ X)
        dcost = -(float(b @ Y) if p else 0.0) - h.dot(Z)
        pres_eq = float(np.max(np.abs(A @ X - b))) / norm_b if p else 0.0
        prz = sf.G_apply(X)
        prz.axpy(1.0, S)
        prz.axpy(-1.0, h)
        dres_vec = (A.T @ Y if p else 0.0) + sf.GT_apply(Z) + c
        res = {
            "primal": max(pres_eq, prz.inf_norm() / norm_h),
            "dual": float(np.max(np.abs(dres_vec))) / norm_c,
            "gap": abs(pcost - dcost) / (1.0 + abs(pcost)),
        }
        return (X, Y, S, Z), pcost, dcost, res

    def embedding(x, y, s, z, tau, kappa):
        """G x and the residuals and barrier parameter of the embedding."""
        Gx = sf.G_apply(x)
        rx = A.T @ y + sf.GT_apply(z) + c * tau if p else sf.GT_apply(z) + c * tau
        ry = A @ x - b * tau if p else np.zeros(0)
        rz = Gx.copy()
        rz.axpy(1.0, s)
        rz.axpy(-tau, h)
        rtau = float(c @ x) + (float(b @ y) if p else 0.0) + h.dot(z) + kappa
        mu = (s.dot(z) + tau * kappa) / nu1
        return Gx, rx, ry, rz, rtau, mu

    def result_from(state, status, iterations):
        bx, by, bs, bz, btau, _ = state
        (X, Y, S, Z), pcost, dcost, res = metrics(bx, by, bs, bz, btau)
        res["complementarity"] = S.dot(Z)
        if (res["primal"] <= cfg.feas_tol and res["dual"] <= cfg.feas_tol
                and res["gap"] <= cfg.gap_tol):
            status = "optimal"
        X0, Y0, S0, Z0 = sf.unscale_solution(X, Y, S, Z)
        return SolveResult(
            status=status, primal=pcost / sf.obj_scale, dual=dcost / sf.obj_scale,
            x=X0, y_eq=sf.expand_eq_duals(Y0),
            z_lin=Z0.lin, z_psd=[M.copy() for M in Z0.mats],
            s_lin=S0.lin, s_psd=[M.copy() for M in S0.mats],
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
        by_hz = (float(b @ y) if p else 0.0) + h.dot(z)
        if by_hz < -1e-12:
            cert = float(np.max(np.abs(A.T @ y + sf.GT_apply(z)))) if p else \
                float(np.max(np.abs(sf.GT_apply(z))))
            if cert / (-by_hz) <= cfg.feas_tol * norm_c:
                return SolveResult("infeasible", math.inf, math.inf,
                                   residuals={"certificate": cert / (-by_hz)},
                                   iterations=it, history=history)
        cx = float(c @ x)
        if cx < -1e-12:
            gxs = Gx.copy()
            gxs.axpy(1.0, s)
            cert = max(float(np.max(np.abs(A @ x))) if p else 0.0, gxs.inf_norm())
            if cert / (-cx) <= cfg.feas_tol * max(norm_b, norm_h):
                return SolveResult("unbounded", -math.inf, -math.inf,
                                   residuals={"certificate": cert / (-cx)},
                                   iterations=it, history=history)

        if (s.lin.size and (np.min(s.lin) <= 0.0 or np.min(z.lin) <= 0.0)) or \
                not (np.all(np.isfinite(s.lin)) and np.all(np.isfinite(z.lin))):
            return current_result("numerical_failure", it)
        try:
            scal = _Scaling(s, z)
            kkt = _KKT(sf, scal)
            lam = scal.lam()
            dx2, dy2, dz2 = kkt.solve3(-c, b, h)
        except (np.linalg.LinAlgError, ValueError):
            return current_result("numerical_failure", it)

        def direction(ds_target, dkt_target, eta):
            q = scal.mult_Wt_lam_solve_extended(ds_target)
            w_tilde = rz.scale(-np.longdouble(eta))
            w_tilde.axpy(-1.0, q)
            dx1, dy1, dz1 = kkt.solve3(-eta * rx, -eta * ry, w_tilde)
            den = float(c @ dx2) + (float(b @ dy2) if p else 0.0) + h.dot(dz2) - kappa / tau
            num = -eta * rtau - float(c @ dx1) - (float(b @ dy1) if p else 0.0) \
                - h.dot(dz1) - dkt_target / tau
            dtau = num / den
            dx = dx1 + dtau * dx2
            dy = dy1 + dtau * dy2
            dz = dz1.combo(dtau, dz2)
            ds = scal.ds_from_dz(q, dz)
            dkappa = (dkt_target - kappa * dtau) / tau
            return dx, dy, dz, ds, dtau, dkappa

        def max_step(ds_bar, dz_bar, dtau, dkappa):
            """Largest step that keeps s, z, tau and kappa in their cones."""
            return min(
                _step_to_boundary(lam, ds_bar),
                _step_to_boundary(lam, dz_bar),
                tau / -dtau if dtau < 0 else math.inf,
                kappa / -dkappa if dkappa < 0 else math.inf,
            )

        # predictor
        try:
            lam_sq = _jordan(lam, lam)
            dxa, dya, dza, dsa, dtaua, dkappaa = direction(lam_sq.scale(-1.0),
                                                           -tau * kappa, 1.0)
        except (np.linalg.LinAlgError, ValueError):
            return current_result("numerical_failure", it)
        dz_bar = scal.scale_z(dza)
        ds_bar = scal.scale_s(dsa)
        alpha_a = min(1.0, max_step(ds_bar, dz_bar, dtaua, dkappaa))
        mu_aff = (
            s.combo(alpha_a, dsa).dot(z.combo(alpha_a, dza))
            + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
        ) / nu1
        sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

        # corrector
        try:
            e = _ConeVec.identity(sf.l, sf.sizes)
            ds_comb = lam_sq.scale(-1.0)
            ds_comb.axpy(-1.0, _jordan(ds_bar, dz_bar))
            ds_comb.axpy(sigma * mu, e)
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
                    *_, res_a = metrics(x + a * dx, y + a * dy, s.combo(a, ds),
                                        z.combo(a, dz), tau + a * dtau)
                    m_a = max(res_a.values())
                except (FloatingPointError, ZeroDivisionError):
                    m_a = math.inf
                scored.append((m_a, a))
            scored.sort()
            alpha = scored[0][1]
        x += alpha * dx
        y += alpha * dy
        s.axpy(alpha, ds)
        z.axpy(alpha, dz)
        tau += alpha * dtau
        kappa += alpha * dkappa
        if tau <= 0 or kappa < 0:
            return current_result("numerical_failure", it)

    return current_result("max_iter", cfg.max_iter)
