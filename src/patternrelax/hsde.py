"""Primal-dual interior-point solver core for linear + PSD-block cone programs.

Solves   min c'x  s.t.  A x = b,  G x + s = h,  s in K
with K = R_+^l x S_+^{m_1} x ... x S_+^{m_J}, via the homogeneous self-dual
embedding: Nesterov-Todd scaling, Mehrotra predictor-corrector, and a sparse
LU factorization of one augmented KKT system per iteration, with a
static-regularization fallback plus iterative refinement.  Equalities and
the linear cone rows enter the KKT system directly; only the PSD blocks are
eliminated into their Schur complements.  The KKT matrix is filled into a
sparsity pattern built once per solve and factored with splu, whatever its
size.  The fill-reducing ordering is computed once per solve too: the first
factorization's COLAMD perm_c relabels the rows and columns of every later
matrix, with each column's rows in their original order, which gives the
same bits as COLAMD each time (_KKTPattern).

Each KKT solve is one refinement loop of at most six passes against the
residual accumulated in long double.

Cone vectors (s, z, h and every direction) are flat float64 arrays: the
orthant entries, then each PSD block's entries row by row (_Cone), and G is
one CSR matrix, as in the standard form of CVXOPT and ECOS.  Each block's
coefficients are read off G's rows; a block above DENSE_BLOCK_MAX holds
them as sparse triples and forms its Schur complement from them, as
Fujisawa, Kojima and Nakata do for sparse SDP data.  The blocks of
one size are processed as one (k, m, m) stack: the scaling (_Scaling) and the
Jordan product do one numpy call per distinct block size, not a Python loop
per block, which is what many small blocks (chain and term-sparsity
patterns) need.  ipm.solve imports this module at its first call.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .ipm import SolveResult, SolverConfig
from .program import ConicProgram


def _inf_norm(v) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _T(M):
    """The transpose of each matrix of a stack (or of one matrix)."""
    return M.swapaxes(-1, -2)


def _sym(M):
    return 0.5 * (M + _T(M))


class _Cone:
    """Layout of R^l x S^{m_1} x ... x S^{m_J} in one flat array.

    A cone vector holds the l orthant entries, then each block's m*m entries
    row by row; lin and mats give views of these sections.

    The blocks of one size form a group, in program order; index[g] holds
    the positions of group g's entries as a (k, m, m) array.  batch gathers
    each group into one stack and stack scatters the stacks back, so the
    solver makes one numpy call per group instead of one per block, as SDPT3
    does for many small blocks.  slots[j] is block j's group and place in it.
    """

    def __init__(self, l: int, sizes: list):
        self.l = l
        self.sizes = sizes
        self.offsets = np.cumsum([l] + [m * m for m in sizes])  # block starts, then the end
        groups = {}  # size -> its blocks
        for j, m in enumerate(sizes):
            groups.setdefault(m, []).append(j)
        self.index = [self.offsets[js, None, None] + np.arange(m * m).reshape(m, m)
                      for m, js in groups.items()]
        self.slots = [None] * len(sizes)
        for g, js in enumerate(groups.values()):
            for i, j in enumerate(js):
                self.slots[j] = (g, i)

    def lin(self, v):
        return v[: self.l]

    def mats(self, v):
        return [v[o:o + m * m].reshape(m, m) for o, m in zip(self.offsets, self.sizes)]

    def batch(self, v):
        """The blocks of v as one (k, m, m) stack per group (copies)."""
        return [v[idx] for idx in self.index]

    def stack(self, lin, batches):
        """The cone vector with orthant entries lin and the group stacks batches."""
        v = np.empty(self.offsets[-1], np.result_type(lin, *batches))
        v[: self.l] = lin
        for idx, B in zip(self.index, batches):
            v[idx] = B
        return v

    def identity(self):
        e = np.zeros(self.offsets[-1])
        e[: self.l] = 1.0
        for idx in self.index:
            e[np.diagonal(idx, axis1=1, axis2=2)] = 1.0
        return e


# the largest PSD block whose Schur complement uses the dense formula
# (_DenseBlock) and whose long-double products use numpy's long-double
# matmul; larger blocks use the sparse formula (_SparseBlock) and _sliced_ld
DENSE_BLOCK_MAX = 20
# entries per dense stack of block matrices made at once (2 MB of float64)
_CHUNK = 1 << 18


def _slices(X, axis: int, bits: int) -> list:
    """X (float64) as three slices X0 + X1 + X2, plus a rest below 2^-3bits
    of the largest |X| along axis.  Slice k holds integer multiples of
    2^(e - (k+1) bits), with 2^e the power of two above that largest |X|."""
    _, e = np.frexp(np.max(np.abs(X), axis=axis, keepdims=True))
    out = []
    for k in range(1, 4):
        grid = np.ldexp(1.0, e - k * bits)
        S = np.rint(X / grid) * grid
        out.append(S)
        X = X - S
    return out


def _sliced_ld(A, B):
    """A @ B for long-double stacks of (m, m) matrices, from float64 BLAS.

    numpy multiplies long doubles in a scalar loop, four times slower than
    this for m = 126.  Each operand is its double rounding plus a rest.  The
    double parts are cut into slices on one power of two per row of A and per
    column of B (Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012),
    with few enough bits that the six leading slice products are exact in
    any summation order; the rests enter through two plain products.  The
    terms are added in long double, smallest first.  The error is about
    2^-69 |A||B|, against m 2^-64 |A||B| for the long-double loop, but the
    bits differ from the loop's.
    """
    bits = int(53 - math.log2(A.shape[-1])) // 2
    Ah, Bh = A.astype(float), B.astype(float)
    As, Bs = _slices(Ah, -1, bits), _slices(Bh, -2, bits)
    out = ((A - Ah).astype(float) @ Bh + Ah @ (B - Bh).astype(float)).astype(np.longdouble)
    for i, j in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)):
        out += As[i] @ Bs[j]
    return out


def _matmul_ld(A, B):
    """A @ B in long double: numpy's loop up to DENSE_BLOCK_MAX, else _sliced_ld."""
    return A @ B if A.shape[-1] <= DENSE_BLOCK_MAX else _sliced_ld(A, B)


class InconsistentEqualities(Exception):
    """Raised by presolve when the equality system has no solution."""


class _StandardForm:
    """Array view of a lowered ConicProgram, equilibrated for the solver.

    Presolve drops linearly dependent equality rows (rejecting inconsistent
    systems outright).  Columns, rows (a PSD block's rows share one scalar,
    to preserve the cone), and the objective are rescaled to O(1); the solver
    works on the scaled data and the recovery vectors map solutions and
    duals back.  G is one CSR matrix, built from its nonzeros in one pass:
    the linear rows, then -vec(F_j) for each PSD block F(x) = C + sum_j x_j F_j.
    After the scaling each block's nonzero F_j entries are read straight off
    G's rows into a _DenseBlock (m <= DENSE_BLOCK_MAX) or a _SparseBlock,
    which form its Schur complement.
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
        # G's nonzeros as (row, column, value) triples, made into CSR in one
        # pass: linear rows a'x >= rhs become slacks s = a'x - rhs, i.e.
        # G = -a, h = -rhs; then -vec(F_j) of each block, row by row
        nnz = [len(row.coeff) for row in prog.ineqs]
        rows = [np.repeat(np.arange(self.l), nnz)]
        cols = [np.fromiter((j for row in prog.ineqs for j in row.coeff), int, sum(nnz))]
        vals = [np.fromiter((-v for row in prog.ineqs for v in row.coeff.values()), float,
                            sum(nnz))]
        h = [-np.array([row.rhs for row in prog.ineqs], dtype=float)]
        block_cols = []
        for blk, o in zip(prog.blocks, self.cone.offsets):
            # entry (col, i, j) -> v is F_col[i, j] = F_col[j, i] = v
            m = blk.size
            col, i, j = np.array(list(blk.entries), dtype=int).reshape(-1, 3).T
            v = np.fromiter(blk.entries.values(), float, len(col))
            off = i != j
            rows += [o + i * m + j, o + j[off] * m + i[off]]
            cols += [col, col[off]]
            vals += [-v, -v[off]]
            hb = np.zeros((m, m))
            for (a, b), c in blk.const.items():
                hb[a, b] = hb[b, a] = c
            h.append(hb.ravel())
            block_cols.append(np.unique(col))
        rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
        keep = vals != 0.0
        self.G = sps.coo_array((vals[keep], (rows[keep], cols[keep])),
                               shape=(self.cone.offsets[-1], n)).tocsr()
        self.h = np.concatenate(h)
        self.c = np.asarray(prog.c, float).copy()
        self._equilibrate()
        # loop-invariant forms of the scaled data: each block's coefficients,
        # read off G's rows, for its Schur complement, long-double copies for
        # the extended-precision residual, and the KKT sparsity pattern.  The
        # transposes are views of the same arrays, held because making a view
        # costs more than a product with it
        G = self.G
        self.blocks = []
        for m, bcols, o in zip(self.cone.sizes, block_cols, self.cone.offsets):
            lo, hi = G.indptr[o], G.indptr[o + m * m]
            entry = np.repeat(np.arange(m * m), np.diff(G.indptr[o:o + m * m + 1]))
            k = np.searchsorted(bcols, G.indices[lo:hi])
            kind = _DenseBlock if m <= DENSE_BLOCK_MAX else _SparseBlock
            self.blocks.append(kind(m, bcols, entry, k, -G.data[lo:hi]))
        self.GT = self.G.T
        # A over G in long double, so that one CSR product gives A dx and
        # G dx (each row is summed on its own, so the bits are those of two
        # products); the transposes are views of its row slices
        p = self.A.shape[0]
        self.AG_ld = sps.vstack([sps.csr_array(self.A), G], format="csr").astype(np.longdouble)
        self.AT_ld, self.GT_ld = self.AG_ld[:p].T, self.AG_ld[p:].T
        self.kkt_pattern = _KKTPattern(self)

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
    """Nesterov-Todd scaling for the current (s, z) pair.

    The block factors R, Rinv, W'W (Wmat, in long double), its inverse Winv
    and the singular values sig (lambda's block diagonals) are held as one
    stack per group of equal-size blocks (_Cone), and every method does one
    numpy call per group.  Stacked matmul, cholesky, svd and eigvalsh run the
    kernel of the 2-D call on each matrix, so the results are those of a loop
    over the blocks.
    """

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        self.w2 = cone.lin(s) / cone.lin(z)  # W'W diag
        self.lam_lin = np.sqrt(cone.lin(s) * cone.lin(z))
        self.R = []
        self.Rinv = []
        self.sig = []
        self.Wmat = []
        self.Winv = []
        for S, Z in zip(cone.batch(s), cone.batch(z)):
            Ls = np.linalg.cholesky(S)
            Lz = np.linalg.cholesky(Z)
            U, sig, Vt = np.linalg.svd(_T(Lz) @ Ls)
            sighalf = np.sqrt(sig)[:, None, :]
            R = Ls @ _T(Vt) / sighalf
            Rinv = _T(U / sighalf) @ _T(Lz)
            self.R.append(R)
            self.Rinv.append(Rinv)
            self.sig.append(sig)
            self.Wmat.append((R @ _T(R)).astype(np.longdouble))  # W'W, used in long double
            self.Winv.append(_T(Rinv) @ Rinv)
        # long-double copies for the extended-precision products
        self.w2_ld = self.w2.astype(np.longdouble)
        self.R_ld = [R.astype(np.longdouble) for R in self.R]

    def scale_z(self, z):
        """z-bar = W z; maps the current z to lambda."""
        cone = self.cone
        return cone.stack(np.sqrt(self.w2) * cone.lin(z),
                          [_sym(_T(R) @ M @ R) for R, M in zip(self.R, cone.batch(z))])

    def scale_s(self, s):
        """s-bar = W^{-T} s; maps the current s to lambda."""
        cone = self.cone
        return cone.stack(cone.lin(s) / np.sqrt(self.w2),
                          [_sym(Ri @ M @ _T(Ri)) for Ri, M in zip(self.Rinv, cone.batch(s))])

    def WtW_inv_apply(self, v):
        cone = self.cone
        return cone.stack(cone.lin(v) / self.w2,
                          [_sym(Wi @ M @ Wi) for Wi, M in zip(self.Winv, cone.batch(v))])

    def WtW_apply_ld(self, v):
        """W'W v in long double, for v in long double."""
        cone = self.cone
        return cone.stack(self.w2_ld * cone.lin(v),
                          [_matmul_ld(_matmul_ld(Wm, M), Wm)
                           for Wm, M in zip(self.Wmat, cone.batch(v))])

    def lam(self):
        return self.cone.stack(self.lam_lin,
                               [sig[:, :, None] * np.eye(sig.shape[1]) for sig in self.sig])

    def lam_solve(self, d):
        """Solve lambda o u = d for u in the scaled space."""
        cone = self.cone
        return cone.stack(cone.lin(d) / self.lam_lin,
                          [D / (0.5 * (sig[:, :, None] + sig[:, None, :]))
                           for sig, D in zip(self.sig, cone.batch(d))])

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
                          [_sym(_matmul_ld(_matmul_ld(R, U), _T(R)))
                           for R, U in zip(self.R_ld, cone.batch(u))]
                          ).astype(float)

    def ds_from_dz(self, q, dz):
        """ds = q - W'W dz in extended precision (q from the helper above)."""
        cone = self.cone
        ds = q - self.WtW_apply_ld(dz.astype(np.longdouble))
        return cone.stack(cone.lin(ds), [_sym(M) for M in cone.batch(ds)]).astype(float)

    def step_to_boundary(self, d) -> float:
        """Largest t with lambda + t*d in the cone.

        A non-finite block entry gives NaN, as a NaN orthant entry does:
        eigvalsh returns finite eigenvalues for a NaN matrix.
        """
        cone = self.cone
        worst = float(np.max(-cone.lin(d) / self.lam_lin, initial=0.0))
        if not np.all(np.isfinite(d[cone.l:])):
            return math.nan
        for sig, D in zip(self.sig, cone.batch(d)):
            sig = np.sqrt(sig)
            eig = np.linalg.eigvalsh(_sym(D / (sig[:, :, None] * sig[:, None, :])))
            worst = max(worst, float(np.max(-eig[:, 0])))
        if worst <= 0.0:
            return math.inf
        return 1.0 / worst


def _jordan(cone: _Cone, u, v):
    return cone.stack(cone.lin(u) * cone.lin(v),
                      [0.5 * (U @ V + V @ U) for U, V in zip(cone.batch(u), cone.batch(v))])


class _DenseBlock:
    """A small PSD block's coefficients as one dense (columns x m*m) matrix F2.

    The block's nonzero coefficients arrive as triples: entry a*m + b, the
    position k of column j in cols (sorted) and the value F_j[a, b].  The
    Schur complement F2 (W'W)^{-1} F2' is one stacked product and one matrix
    product, the fastest form for the small blocks of chain patterns.
    """

    def __init__(self, m: int, cols: np.ndarray, entry, k, val):
        self.m, self.cols = m, cols
        self.F2 = np.zeros((len(cols), m * m))
        self.F2[k, entry] = val

    def schur(self, Wi: np.ndarray) -> np.ndarray:
        """H[k, k'] = <F_k, Wi F_k' Wi> over the block's columns."""
        m, nc = self.m, len(self.cols)
        T = Wi @ self.F2.reshape(nc, m, m) @ Wi
        return self.F2 @ T.reshape(nc, m * m).T


class _SparseBlock:
    """A large PSD block's coefficients as sparse triples (see _DenseBlock).

    The moment and localizing blocks of term-sparsity patterns have a few
    nonzeros per column: F_j holds on average m*m / columns entries, where a
    dense F2 holds m*m.  The Schur complement is formed as in Fujisawa,
    Kojima and Nakata (Math. Prog. 79, 1997): Wi F_j Wi is the sum of
    v Wi[:, a] Wi[b, :] over F_j's entries (a, b, v), one stacked product
    for the columns with the same entry count, then contracted with the
    sparse F.  Both F_k and Wi F_j Wi are symmetric, so the contraction
    reads only the upper triangle, with the off-diagonal F entries doubled
    (Fu).  No dense (columns x m*m) array is held.
    """

    def __init__(self, m: int, cols: np.ndarray, entry, k, val):
        self.m, self.cols = m, cols
        nc = len(cols)
        F = sps.csr_array((val, (k, entry)), shape=(nc, m * m))
        # the entries of the columns with r entries, r > 0, as (columns, r)
        # arrays, in chunks that bound each stack of Wi F_j Wi
        counts = np.diff(F.indptr)
        step = max(1, _CHUNK // (m * m))
        self.groups = []
        for r in np.unique(counts[counts > 0]):
            ks = np.flatnonzero(counts == r)
            for kc in np.split(ks, range(step, len(ks), step)):
                t = F.indptr[kc, None] + np.arange(r)
                e = F.indices[t]
                self.groups.append((kc, e // m, e % m, F.data[t][..., None]))
        a, b = entry // m, entry % m
        up = a <= b
        self.upper, pos = np.unique(entry[up], return_inverse=True)
        self.Fu = sps.csr_array((np.where(a[up] < b[up], 2.0, 1.0) * val[up], (k[up], pos)),
                                shape=(nc, len(self.upper)))

    def schur(self, Wi: np.ndarray) -> np.ndarray:
        """H[k, k'] = <F_k, Wi F_k' Wi> over the block's columns."""
        m, nc = self.m, len(self.cols)
        H = np.zeros((nc, nc))
        WiT = _T(Wi)
        for kc, a, b, v in self.groups:
            T = _T(WiT[a] * v) @ Wi[b]  # Wi F_j Wi for the columns kc
            H[:, kc] = self.Fu @ T.reshape(len(kc), m * m).T[self.upper]
        return H


class _KKTPattern:
    """CSC sparsity pattern of the augmented KKT matrix of one solve,

        [[H, A', Gl'], [A, 0, 0], [Gl, 0, -diag(w2)]],

    with H the sum of the PSD blocks' Schur complements and Gl the linear
    rows of G.  H and w2 change every iteration, but where the matrix can be
    nonzero does not: each block's columns x columns, A, Gl and their
    transposes, plus the whole diagonal (for w2 and the shift fallback).  The
    pattern is built once per solve together with the slots of the blocks
    and of the diagonal in the CSC data array, so an iteration only fills in
    values, into the matrices M (the KKT matrix) and Ms (its equilibration),
    which the pattern holds for the whole solve.

    The fill-reducing ordering depends on the pattern alone, so it is also
    computed once per solve: the first factorization orders the columns
    with COLAMD, as splu does by default, and the pattern keeps that
    perm_c.  Each later factorization gathers Ms into P, the same matrix
    with rows and columns relabelled by perm_c, and factors P in its natural
    order.  Its factors, pivots and solves are the same bits as those of
    splu with COLAMD on Ms, because of two properties of P:

    - rows and columns are relabelled by the same permutation, so SuperLU's
      preferred diagonal pivot is still the true diagonal;
    - each column keeps its rows in their original order (P is marked
      canonical, so splu does not sort them), so pivot ties break as they
      do on Ms.
    """

    def __init__(self, sf: _StandardForm):
        n, p = sf.n, sf.A.shape[0]
        N = n + p + sf.l
        # every contribution as the key column * N + row of its coordinate:
        # the diagonal, each block's columns x columns, then the fixed A and Gl
        # entries below H and their transposes.  A block's keys run column by
        # column, so they ascend, and the search for their slots below walks
        # the stored keys in order instead of jumping across them
        Gl = sf.G[: sf.l].tocoo()
        ai, aj = np.nonzero(sf.A)
        lower_r = np.concatenate([n + ai, n + p + Gl.row])
        lower_c = np.concatenate([aj, Gl.col])
        blk = [(b.cols[:, None] * N + b.cols).ravel() for b in sf.blocks]
        keys = np.concatenate([np.arange(N) * (N + 1), *blk,
                               lower_c * N + lower_r, lower_r * N + lower_c])
        # the stored entries: the distinct keys, column by column with sorted
        # rows (np.unique with return_inverse would argsort all the keys,
        # slower than this sort and search)
        srt = np.sort(keys)
        stored = srt[np.concatenate([[True], srt[1:] != srt[:-1]])]
        slot = np.searchsorted(stored, keys)  # where each contribution goes in the data
        self.indices = (stored % N).astype(np.int32)
        self.col = stored // N  # column of each stored entry
        self.indptr = np.searchsorted(self.col, np.arange(N + 1)).astype(np.int32)
        self.shape = (N, N)
        self.diag = slot[:N]
        self.lin_diag = self.diag[n + p:]
        # each block's columns x columns, row by row as its Hb is raveled
        ends = np.cumsum([N] + [k.size for k in blk])
        self.hslots = np.concatenate([np.zeros(0, np.intp)] + [
            slot[a:e].reshape(b.cols.size, -1).T.ravel()
            for a, e, b in zip(ends, ends[1:], sf.blocks)])
        self.base = np.zeros(len(stored))  # the fixed A and Gl values
        self.base[slot[ends[-1]:]] = np.concatenate([sf.A[ai, aj], Gl.data] * 2)
        self.M, self.Ms = (sps.csc_array((np.zeros(len(stored)), self.indices, self.indptr),
                                         shape=self.shape) for _ in range(2))
        # the ordering and the permuted matrix, from the first factorization
        self.perm = self.iperm = self.gather = self.P = None

    def matrix(self, w2: np.ndarray, Hbs: list) -> sps.csc_array:
        """The KKT matrix for the scaling W'W (diagonal w2 on the linear rows)
        and the Schur complements Hb of the blocks, in order: M, refilled."""
        data = self.M.data
        data[:] = self.base
        if Hbs:
            # one pass that adds the blocks' terms slot by slot in block
            # order, the sums of data[slots] += Hb block by block
            data += np.bincount(self.hslots, np.concatenate([Hb.ravel() for Hb in Hbs]),
                                len(data))
        data[self.lin_diag] = -w2
        return self.M

    def factor(self, Ms: sps.csc_array):
        """The LU of Ms, a matrix on this pattern, and a solve function of it.

        splu raises RuntimeError at an exactly zero pivot.
        """
        if self.perm is None:
            lu = spla.splu(Ms)
            self._keep_ordering(lu.perm_c)
            return lu, lu.solve
        np.take(Ms.data, self.gather, out=self.P.data)
        lu = spla.splu(self.P, permc_spec="NATURAL")
        perm, iperm = self.perm, self.iperm
        return lu, lambda b: lu.solve(b[iperm])[perm]

    def _keep_ordering(self, perm_c: np.ndarray):
        """Keep the column ordering perm_c (column j of Ms goes to place
        perm_c[j]) and lay out P, the matrix relabelled by it."""
        # a copy: perm_c is a view whose base is the SuperLU object, which it
        # would keep alive for the whole solve
        self.perm = np.array(perm_c)
        self.iperm = np.argsort(self.perm)
        # column k of P is column iperm[k] of Ms, its rows in their order
        counts = np.diff(self.indptr)[self.iperm]
        indptr = np.zeros(len(counts) + 1, np.int32)
        np.cumsum(counts, out=indptr[1:])
        self.gather = (np.repeat(self.indptr[self.iperm] - indptr[:-1], counts)
                       + np.arange(len(self.indices)))
        self.P = sps.csc_array((np.empty(len(self.gather)), self.perm[self.indices[self.gather]],
                                indptr), shape=self.shape)
        self.P.has_canonical_format = True


class _KKT:
    """Factorization of the augmented KKT matrix of one iteration.

    The unknowns are (dx, dy, dz_lin).  The PSD part of dz is eliminated
    through (W'W)^{-1}, which puts each block's Schur complement
    F'(W'W)^{-1}F into H, formed by the block itself (_DenseBlock up to
    DENSE_BLOCK_MAX, _SparseBlock above); the linear rows stay in the matrix
    with -w2 on their diagonal, as in ECOS and CVXOPT's ldl KKT solver,
    instead of entering H as Gl'(W'W)^{-1}Gl, which squares their scaling.
    The matrix is filled into the solve's fixed sparsity pattern
    (_KKTPattern), equilibrated symmetrically and factored by the pattern
    with its stored ordering; a (near-)singular one is factored again with a
    tiny quasidefinite shift.  M and Ms are the pattern's matrices, refilled
    by the next _KKT of the solve.
    """

    REG = 1e-10

    def __init__(self, sf: _StandardForm, scal: _Scaling):
        self.sf = sf
        self.scal = scal
        Hbs = [blk.schur(scal.Winv[g][i]) for blk, (g, i) in zip(sf.blocks, sf.cone.slots)]
        self.n, self.p = sf.n, sf.A.shape[0]
        pattern = sf.kkt_pattern
        M = pattern.matrix(scal.w2, Hbs)
        # symmetric diagonal equilibration before factorizing
        d = np.sqrt(np.maximum(np.maximum.reduceat(np.abs(M.data), M.indptr[:-1]), 1e-300))
        self.d = 1.0 / d
        self.M, self.Ms = M, pattern.Ms
        np.multiply(M.data, self.d[M.indices], out=self.Ms.data)
        self.Ms.data *= self.d[pattern.col]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                self._solve, pivots, factors = self._factor(self.Ms)
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
        try:
            lu, solve = self.sf.kkt_pattern.factor(Ms)
        except RuntimeError as exc:  # splu stops at an exactly zero pivot
            raise np.linalg.LinAlgError("singular KKT matrix") from exc
        L, U = lu.L, lu.U  # built at the first access, then cached by scipy
        return solve, U.diagonal(), (L.data, U.data)

    def _shifted(self):
        """The equilibrated matrix with a tiny quasidefinite shift."""
        Mreg = self.Ms.copy()
        diag = self.sf.kkt_pattern.diag
        Mreg.data[diag[: self.n]] += self.REG
        Mreg.data[diag[self.n:]] -= self.REG
        return Mreg

    def _lin_solve(self, rhs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(rhs)):
            raise np.linalg.LinAlgError("non-finite KKT right-hand side")
        return self.d * self._solve(self.d * rhs)

    def _raw_solve(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        # the factored solve works in double precision, and w is a double
        # vector (q and w_tilde were rounded to double where they were made);
        # accuracy comes from the extended-precision refinement loop around it.
        # Only the PSD part of w is eliminated through (W'W)^{-1}: the linear
        # part is the right-hand side of the linear rows, which give dz_lin
        sf, scal, l = self.sf, self.scal, self.sf.l
        wp = scal.WtW_inv_apply(w)
        wp[:l] = 0.0
        rhs = np.concatenate([u + sf.GT @ wp, v, w[:l]])
        sol = self._lin_solve(rhs)
        resid = rhs - self.M @ sol
        if np.max(np.abs(resid)) > 1e-13 * max(1.0, float(np.max(np.abs(rhs)))):
            sol += self._lin_solve(resid)
        n, p = self.n, self.p
        dx, dy = sol[:n], sol[n:n + p]
        dz = scal.WtW_inv_apply(sf.G @ dx - w)
        dz[:l] = sol[n + p:]
        return dx, dy, dz

    def _full_residual(self, u, v, w, dx, dy, dz):
        """KKT residual with extended-precision accumulation throughout.

        Near convergence dz is huge while the target residual is tiny, so
        double-precision products would floor the attainable dual accuracy.
        u, v and w may be long double already (solve3 converts them once).
        """
        sf, ld, p = self.sf, np.longdouble, self.p
        dzl = dz.astype(ld)
        AGdx = sf.AG_ld @ dx.astype(ld)
        r1 = (u - (sf.AT_ld @ dy.astype(ld) + sf.GT_ld @ dzl)).astype(float)
        r2 = (v - AGdx[:p]).astype(float)
        r3 = (w - AGdx[p:] + self.scal.WtW_apply_ld(dzl)).astype(float)
        return r1, r2, r3

    def solve3(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """Solve the 3x3 system, refining against the full KKT residual.

        One refinement loop of at most six passes on the factorization;
        returns the pass with the smallest residual.
        """
        # the meaningful accuracy scale excludes |w|: the cone right-hand
        # side grows like 1/mu while the step equations need absolute
        # accuracy at the residual level
        tol = 1e-13 * max(1.0, _inf_norm(u), _inf_norm(v))
        passes = 6
        best = None
        ld = np.longdouble
        u_ld, v_ld, w_ld = u.astype(ld), v.astype(ld), w.astype(ld)
        dx, dy, dz = self._raw_solve(u, v, w)
        for k in range(passes):
            r1, r2, r3 = self._full_residual(u_ld, v_ld, w_ld, dx, dy, dz)
            err = max(_inf_norm(r1), _inf_norm(r2), _inf_norm(r3))
            if best is None or err < best[0]:
                best = (err, dx, dy, dz)
            if err <= tol or k + 1 == passes:
                break
            cx, cy, cz = self._raw_solve(r1, r2, r3)
            dx, dy, dz = dx + cx, dy + cy, dz + cz
        return best[1:]


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
            """Largest step that keeps s, z, tau and kappa in their cones.

            NaN when any step length is NaN (a non-finite direction): numpy's
            min propagates it, where Python's would keep a finite argument.
            """
            return float(np.min([
                scal.step_to_boundary(ds_bar),
                scal.step_to_boundary(dz_bar),
                tau / -dtau if dtau < 0 else math.inf,
                kappa / -dkappa if dkappa < 0 else math.inf,
            ]))

        # predictor
        try:
            lam_sq = _jordan(cone, lam, lam)
            dxa, dya, dza, dsa, dtaua, dkappaa = direction(-lam_sq, -tau * kappa, 1.0)
        except (np.linalg.LinAlgError, ValueError):
            return current_result("numerical_failure", it)
        dz_bar = scal.scale_z(dza)
        ds_bar = scal.scale_s(dsa)
        step_a = max_step(ds_bar, dz_bar, dtaua, dkappaa)
        if math.isnan(step_a):
            return current_result("numerical_failure", it)
        alpha_a = min(1.0, step_a)
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
        step = max_step(scal.scale_s(ds), scal.scale_z(dz), dtau, dkappa)
        alpha = min(1.0, 0.99 * step)
        if math.isnan(step) or alpha <= 1e-14:
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
