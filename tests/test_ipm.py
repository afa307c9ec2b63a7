"""Hand-built LP/SDP programs with closed-form answers, plus IPM invariants."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import family_for_method, gen_instance
from patternrelax.hsde import (_KKT, DENSE_BLOCK_MAX, _DenseBlock, _jordan, _KKTPattern, _matmul_ld,
                               _Scaling, _SparseBlock, _StandardForm)
from patternrelax.ipm import SolveResult, SolverConfig, solve
from patternrelax.pipeline import solve_relaxation
from patternrelax.program import ConicProgram


def prog(n):
    return ConicProgram(n)


def sym(rows):
    return np.array(rows, dtype=float)


def entries(coeff):
    """Block entries (col, i, j) -> v, i <= j, of {col: dense symmetric matrix};
    zeros are kept, so an all-zero matrix keeps its column in the block."""
    return {(col, i, j): float(M[i, j])
            for col, M in coeff.items() for i in range(len(M)) for j in range(i, len(M))}


def const(M):
    """A block's constant (i, j) -> v, i <= j, of a dense symmetric matrix."""
    return {(i, j): float(M[i, j])
            for i in range(len(M)) for j in range(i, len(M)) if M[i, j]}


def case_builders():
    cases = []

    def add(name, build, status, value=None):
        cases.append((name, build, status, value))

    # --- linear programs -------------------------------------------------
    def lp1():
        p = prog(1); p.c[:] = [1]; p.add_ineq({0: 1}, 1)
        return p
    add("lp_min_x_geq_1", lp1, "optimal", 1.0)

    def lp2():
        p = prog(3); p.c[:] = [1, 1, 0]
        p.add_eq({0: 1, 1: 1, 2: 1}, 2)
        for j in range(3):
            p.add_ineq({j: 1}, 0)
        return p
    add("lp_simplex_zero", lp2, "optimal", 0.0)

    def lp3():
        p = prog(1); p.c[:] = [-1]
        p.add_ineq({0: -1}, -1)  # x <= 1
        p.add_ineq({0: 1}, 0)
        return p
    add("lp_max_x_leq_1", lp3, "optimal", -1.0)

    def lp4():
        p = prog(2); p.c[:] = [1, 2]
        p.add_ineq({0: 1, 1: 1}, 1)
        p.add_ineq({0: 1}, 0); p.add_ineq({1: 1}, 0)
        return p
    add("lp_weighted", lp4, "optimal", 1.0)

    def lp5():
        p = prog(2); p.c[:] = [-1, -1]
        p.add_ineq({0: -1, 1: -2}, -2)
        p.add_ineq({0: -2, 1: -1}, -2)
        p.add_ineq({0: 1}, 0); p.add_ineq({1: 1}, 0)
        return p
    add("lp_two_constraints", lp5, "optimal", -4.0 / 3.0)

    def lp6():
        p = prog(1); p.c[:] = [1]
        p.add_ineq({0: 1}, 0); p.add_ineq({0: 1}, 0)
        return p
    add("lp_duplicate_rows", lp6, "optimal", 0.0)

    def lp7():
        p = prog(2); p.c[:] = [1, 1]
        p.add_eq({0: 1}, 1)
        p.add_ineq({1: 1}, 2)
        return p
    add("lp_eq_pin", lp7, "optimal", 3.0)

    def lp8():
        p = prog(2); p.c[:] = [0, 1]
        p.add_eq({1: 1, 0: -1}, 0)
        p.add_ineq({0: 1}, 5)
        return p
    add("lp_free_via_eq", lp8, "optimal", 5.0)

    def lp9():
        p = prog(1); p.c[:] = [1]; p.add_ineq({0: 1}, -3)
        return p
    add("lp_negative_rhs", lp9, "optimal", -3.0)

    def lp10():
        p = prog(2); p.c[:] = [3, -1]
        p.add_ineq({0: 1}, 0); p.add_ineq({0: -1}, -1)
        p.add_ineq({1: 1}, 0); p.add_ineq({1: -1}, -2)
        return p
    add("lp_box", lp10, "optimal", -2.0)

    def lp11():
        p = prog(1); p.c[:] = [1000.0]
        p.add_ineq({0: 1000.0}, 1.0)
        return p
    add("lp_scaled", lp11, "optimal", 1.0)

    def lp12():
        p = prog(3); p.c[:] = [0, 0, 1]
        p.add_eq({0: 1, 1: 2, 2: 3}, 6)
        p.add_ineq({0: 1}, 0); p.add_ineq({1: 1}, 0); p.add_ineq({2: 1}, 0)
        return p
    add("lp_min_coord", lp12, "optimal", 0.0)

    def lp13():
        # the second equality is twice the first: presolve drops it
        p = prog(2); p.c[:] = [1, 2]
        p.add_eq({0: 1, 1: 1}, 1); p.add_eq({0: 2, 1: 2}, 2)
        p.add_ineq({0: 1}, 0); p.add_ineq({1: 1}, 0)
        return p
    add("lp_dependent_eqs", lp13, "optimal", 1.0)

    # --- infeasible -------------------------------------------------------
    def inf1():
        p = prog(1); p.add_ineq({0: 1}, 1); p.add_ineq({0: -1}, 0)
        return p
    add("inf_sign_conflict", inf1, "infeasible")

    def inf2():
        p = prog(1); p.add_eq({0: 1}, 1); p.add_eq({0: 1}, 2)
        p.add_ineq({0: 1}, 0)
        return p
    add("inf_inconsistent_eqs", inf2, "infeasible")

    def inf3():
        p = prog(2)
        p.add_eq({0: 1, 1: 1}, 1)
        p.add_ineq({0: 1}, 2); p.add_ineq({1: 1}, 2)
        return p
    add("inf_budget", inf3, "infeasible")

    def inf4():
        p = prog(1)
        p.add_block(2, entries({0: sym([[0, 1], [1, 0]])}), const(sym([[-1, 0], [0, -1]])))
        p.add_ineq({0: 1}, 0)
        return p
    add("inf_negative_diag_psd", inf4, "infeasible")

    def inf5():
        p = prog(1)
        p.add_block(2, entries({0: sym([[1, 0], [0, 0]])}), const(sym([[0, 2], [2, 0.1]])))
        p.add_ineq({0: -1}, -1)  # x <= 1 but psd needs x >= 40
        return p
    add("inf_psd_vs_row", inf5, "infeasible")

    # --- unbounded ----------------------------------------------------------
    def unb1():
        p = prog(1); p.c[:] = [1]; p.add_ineq({0: -1}, 0)
        return p
    add("unb_down", unb1, "unbounded")

    def unb2():
        p = prog(1); p.c[:] = [-1]; p.add_ineq({0: 1}, 1)
        return p
    add("unb_up", unb2, "unbounded")

    def unb3():
        p = prog(2); p.c[:] = [1, 1]
        p.add_eq({0: 1, 1: -1}, 0)
        p.add_ineq({1: -1}, 0)
        return p
    add("unb_along_eq", unb3, "unbounded")

    def unb4():
        p = prog(1); p.c[:] = [-1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 0]])}), const(sym([[0, 0], [0, 1]])))
        return p
    add("unb_psd_ray", unb4, "unbounded")

    def unb5():
        # column 1 is in no constraint and has a cost: a free ray
        p = prog(2); p.c[:] = [1, -1]; p.add_ineq({0: 1}, 0)
        return p
    add("unb_untouched_column", unb5, "unbounded")

    # --- semidefinite -----------------------------------------------------
    def sdp1():
        p = prog(2); p.c[:] = [0, 1]
        p.add_block(2, entries({0: sym([[0, 1], [1, 0]]), 1: sym([[0, 0], [0, 1]])}),
                    const(sym([[1, 0], [0, 0]])))
        return p
    add("sdp_moment_v2", sdp1, "optimal", 0.0)

    def sdp2():
        p = prog(1); p.c[:] = [1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 1]])}), const(sym([[0, 1], [1, 0]])))
        return p
    add("sdp_abs_bound", sdp2, "optimal", 1.0)

    def sdp3():
        p = prog(2); p.c[:] = [1, 1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])}),
                    const(sym([[0, 1], [1, 0]])))
        return p
    add("sdp_amgm", sdp3, "optimal", 2.0)

    def sdp4():
        p = prog(2); p.c[:] = [1, 0]
        p.add_block(2, entries({0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])}),
                    const(sym([[0, 0.5], [0.5, 0]])))
        p.add_eq({0: 1, 1: 1}, 1.25)
        return p
    add("sdp_eq_slice", sdp4, "optimal", 0.25)

    def sdp5():
        p = prog(1); p.c[:] = [1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 1]])}), const(sym([[-1, 0], [0, -2]])))
        return p
    add("sdp_lambda_max", sdp5, "optimal", 2.0)

    def sdp6():
        p = prog(1); p.c[:] = [-1]
        p.add_block(2, entries({0: sym([[-1, 0], [0, -1]])}), const(sym([[2, 1], [1, 2]])))
        return p
    add("sdp_lambda_min", sdp6, "optimal", -1.0)

    def sdp7():
        p = prog(2); p.c[:] = [1, 1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])}),
                    const(sym([[0, 1], [1, 0]])))
        p.add_ineq({0: -1}, -4)
        return p
    add("sdp_amgm_with_row", sdp7, "optimal", 2.0)

    def sdp8():
        p = prog(4); p.c[:] = [0, 0, 0, 1]
        coeff = {
            0: sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
            1: sym([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
            2: sym([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
            3: sym([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
        }
        p.add_block(3, entries(coeff), const(sym([[1, 0, 0], [0, 0, 0], [0, 0, 0]])))
        p.add_eq({0: 1}, 0.5)
        return p
    add("sdp_fourth_moment", sdp8, "optimal", 0.0625)

    def sdp9():
        p = prog(1); p.c[:] = [1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 1]])}), const(sym([[0, 0], [0, 0]])))
        return p
    add("sdp_degenerate_diag", sdp9, "optimal", 0.0)

    def sdp10():
        # two blocks sharing a variable: x >= 1 from block 1, minimize x + y
        p = prog(2); p.c[:] = [1, 1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 1]])}), const(sym([[0, 1], [1, 0]])))
        p.add_block(2, entries({1: sym([[1, 0], [0, 1]])}), const(sym([[0, 2], [2, 0]])))
        return p
    add("sdp_two_blocks", sdp10, "optimal", 3.0)

    def mixed1():
        p = prog(3); p.c[:] = [1, 1, 1]
        p.add_block(2, entries({0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])}),
                    const(sym([[0, 1], [1, 0]])))
        p.add_ineq({2: 1}, 0.5)
        p.add_eq({0: 1, 1: -1}, 0.0)
        return p
    add("mixed_lp_sdp_eq", mixed1, "optimal", 2.5)

    return cases


CASES = case_builders()


def test_suite_has_at_least_thirty_cases():
    assert len(CASES) >= 30
    statuses = {status for _, _, status, _ in CASES}
    assert statuses == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("name,build,status,value", CASES,
                         ids=[c[0] for c in CASES])
def test_handbuilt_program(name, build, status, value):
    _check_case(name, solve(build()), status, value)


def _check_case(name, result, status, value):
    assert result.status == status, (name, result.status, result.residuals)
    if status == "optimal":
        assert abs(result.primal - value) <= 1e-7 * (1 + abs(value)), (
            name, result.primal, value)
        assert abs(result.dual - value) <= 1e-7 * (1 + abs(value))
        res = result.residuals
        assert res["primal"] <= 1e-8 and res["dual"] <= 1e-8
        assert res["gap"] <= 1e-8


def _record_factored(monkeypatch):
    """Record every matrix the KKT factorization is given; returns the list."""
    factored = []
    factor = _KKT._factor

    def recording_factor(self, Ms):
        factored.append(Ms)
        return factor(self, Ms)

    monkeypatch.setattr(_KKT, "_factor", recording_factor)
    return factored


@pytest.mark.parametrize("name,build,status,value", CASES,
                         ids=[c[0] for c in CASES])
def test_handbuilt_program_sparse_kkt(monkeypatch, name, build, status, value):
    # every KKT system is factored as the sparse augmented matrix over
    # (dx, dy, dz_lin), whatever the program's shape: with or without
    # equalities, linear rows or PSD blocks
    factored = _record_factored(monkeypatch)
    p = build()
    result = solve(p)
    assert result.status == status
    if result.iterations:
        sf = _StandardForm(p)
        N = sf.n + sf.A.shape[0] + sf.l
        assert factored and all(sps.issparse(M) and M.shape == (N, N) for M in factored)


def test_sparse_kkt_shift_fallback_on_singular_matrix(monkeypatch):
    # columns 0 and 1 are equal in every constraint, so the KKT matrix is
    # singular; the factorization must fall back to the shifted matrix
    factored = _record_factored(monkeypatch)
    shifted = []
    shift = _KKT._shifted
    monkeypatch.setattr(_KKT, "_shifted", lambda self: shifted.append(1) or shift(self))
    p = prog(3); p.c[:] = [1, 1, 2]
    p.add_ineq({0: 1, 1: 1}, 1)
    p.add_ineq({2: 1}, 0)
    p.add_ineq({0: 1, 1: 1, 2: 1}, 0.5)
    r = solve(p)
    assert factored and shifted
    _check_case("duplicated_column", r, "optimal", 1.0)


def test_weak_duality_along_iterations():
    # once both residuals are small, primal cost >= dual cost - 1e-6
    for name, build, status, _ in CASES:
        if status != "optimal":
            continue
        result = solve(build())
        for pcost, dcost, pres, dres in result.history:
            if pres <= 1e-6 and dres <= 1e-6:
                assert pcost >= dcost - 1e-6, name


def test_complementarity_at_optimum():
    for name, build, status, _ in CASES[:12]:
        if status != "optimal":
            continue
        result = solve(build())
        assert result.residuals["complementarity"] <= 1e-6, name
        assert abs(result.primal - result.dual) <= 1e-6 * (1 + abs(result.primal))


def test_dual_feasibility_sign_convention():
    # c + A'y + G'z = 0 with z >= 0 componentwise on linear rows
    p = ConicProgram(2)
    p.c[:] = [1.0, 2.0]
    p.add_ineq({0: 1.0}, 1.0)
    p.add_ineq({1: 1.0}, 2.0)
    r = solve(p)
    assert r.status == "optimal"
    assert np.all(r.z_lin >= -1e-9)
    resid = p.c + np.array([-r.z_lin[0], -r.z_lin[1]])
    assert np.max(np.abs(resid)) <= 1e-7


def test_solver_config_validation_and_status_fields():
    with pytest.raises(ValueError):
        SolverConfig(feas_tol=0.0)
    r = solve(CASES[0][1]())
    assert isinstance(r, SolveResult)
    assert r.iterations > 0
    assert math.isfinite(r.primal)


def test_max_iter_status():
    p = CASES[4][1]()
    r = solve(p, SolverConfig(max_iter=1, feas_tol=1e-12, gap_tol=1e-12))
    assert r.status in ("max_iter", "numerical_failure")


def test_solve_rejects_unlowered_or_empty():
    from patternrelax.program import GMCData

    p = ConicProgram(3)
    p.gmcs.append(GMCData(0, (1, 2), (0.5, 0.5), "even"))
    with pytest.raises(ValueError):
        solve(p)
    with pytest.raises(ValueError):
        solve(ConicProgram(0))
    with pytest.raises(ValueError):
        solve(ConicProgram(2))  # no cone constraints


@pytest.mark.parametrize("seed,sense", [(5, "max"), (1, "min")],
                         ids=["dense28_5_max_restarts", "dense28_1_min_optimal"])
def test_result_reports_a_visited_iterate(seed, sense):
    # dense(2,8)#5 max breaks down in the endgame, which ends the solve with
    # the best iterate; #1 min converges.  Whatever the status, the reported
    # costs and residuals are exactly those of one iterate in the history.
    inst = gen_instance("dense(2,8)", seed)
    fam = family_for_method("tssos-sos", inst.f)
    r = solve_relaxation(inst.f, fam, inst.box, sense).result
    reported = (r.primal, r.dual, r.residuals["primal"], r.residuals["dual"])
    assert reported in r.history


def test_refinement_evaluates_each_pass_once(monkeypatch):
    # a KKT solve runs one refinement loop of at most six passes, each with
    # one residual evaluation
    calls = []  # residual evaluations per solve3 call
    solve3, full_residual = _KKT.solve3, _KKT._full_residual

    def counting_solve3(self, u, v, w):
        calls.append(0)
        return solve3(self, u, v, w)

    def counting_residual(self, *args):
        calls[-1] += 1
        return full_residual(self, *args)

    monkeypatch.setattr(_KKT, "solve3", counting_solve3)
    monkeypatch.setattr(_KKT, "_full_residual", counting_residual)
    inst = gen_instance("dense(2,6)", 1)
    r = solve_relaxation(inst.f, family_for_method("C", inst.f), inst.box).result
    assert r.status == "optimal"
    assert calls and min(calls) >= 1 and max(calls) <= 6


def test_standard_form_stacks_rows_then_blocks():
    # G holds the linear rows (-a), then -vec(F_j) of each PSD block row by
    # row, and h holds -rhs, then vec(C); without the row and column scaling
    # they are the program's data
    p = prog(3)
    p.add_ineq({2: -1.0, 0: 2.0}, 1.0)
    p.add_block(2, entries({0: sym([[1, 1], [1, 3]]), 2: sym([[0, 1], [1, 0]])}),
                const(sym([[1, 0], [0, 1]])))
    p.add_ineq({1: 4.0}, -2.0)
    p.add_block(3, entries({1: np.diag([1.0, 2.0, 3.0])}), const(np.eye(3)))
    sf = _StandardForm(p)
    ref_G = np.zeros((2 + 4 + 9, 3))
    ref_G[0, [0, 2]] = [-2.0, 1.0]
    ref_G[1, 1] = -4.0
    ref_G[2:6, 0] = -np.array([1, 1, 1, 3])
    ref_G[2:6, 2] = -np.array([0, 1, 1, 0])
    ref_G[6:, 1] = -np.diag([1.0, 2.0, 3.0]).ravel()
    ref_h = np.concatenate([[-1.0, 2.0], np.eye(2).ravel(), np.eye(3).ravel()])
    G = sf.G.toarray() / sf.drow[:, None] / sf.dcol[None, :]
    assert np.allclose(G, ref_G, rtol=1e-15, atol=0.0)
    assert np.allclose(sf.h / sf.drow, ref_h, rtol=1e-15, atol=0.0)
    # each block's rows share one scale, which keeps the cone
    assert [len(set(d)) for d in (sf.drow[2:6], sf.drow[6:])] == [1, 1]
    assert sf.cone.sizes == [2, 3] and list(sf.cone.offsets) == [2, 6, 15]


def _interior_point(sf, rng):
    """A random strictly feasible cone vector for sf's cone."""
    v = np.empty(sf.cone.offsets[-1])
    for M in sf.cone.mats(v):
        m = len(M)
        B = rng.standard_normal((m, m))
        M[...] = B @ B.T + m * np.eye(m)
    v[: sf.l] = rng.uniform(0.5, 2.0, sf.l)
    return v


def _random_cone_vec(sf, rng, scale=1.0):
    v = np.empty(sf.cone.offsets[-1])
    for M in sf.cone.mats(v):
        m = len(M)
        B = scale * rng.standard_normal((m, m))
        M[...] = 0.5 * (B + B.T)
    v[: sf.l] = scale * rng.standard_normal(sf.l)
    return v


def _WtW_per_block(cone, scal, w2, v):
    """W'W v block by block: w2 * v on the orthant, then Wm @ V @ Wm with
    each block's long-double W'W from the group stacks."""
    out = np.empty(len(v), np.result_type(w2, *scal.Wmat))
    out[: cone.l] = w2 * cone.lin(v)
    for (g, i), M, V in zip(cone.slots, cone.mats(out), cone.mats(v)):
        Wm = scal.Wmat[g][i]
        M[...] = Wm @ V @ Wm
    return out


@pytest.mark.parametrize("tag,method", [("dense(2,6)", "C"), ("A6", "M")],
                         ids=["dense26_C", "A6_M"])
def test_block_products_match_tensordot_formulas(tag, method):
    # the solver applies G as one CSR matrix and evaluates the KKT residual
    # on its long-double copy; G x must give the bits of the per-block
    # tensordot formula, the residual those of a dense long-double G, and
    # G' must be the adjoint of G under the cone inner product
    sf = _StandardForm(_lowered(tag, method))
    cone = sf.cone
    rng = np.random.default_rng(7)
    ld = np.longdouble

    x = rng.standard_normal(sf.n)
    q = _random_cone_vec(sf, rng)
    Gx = sf.G @ x
    Gl = sf.G[: sf.l].toarray()
    assert np.array_equal(cone.lin(Gx), Gl @ x)
    for blk, M in zip(sf.blocks, cone.mats(Gx)):
        m, cols, F2 = blk.m, blk.cols, blk.F2
        ref = -np.tensordot(x[cols], F2.reshape(len(cols), m, m), axes=1)
        assert np.array_equal(M, ref)
    assert abs(Gx @ q - x @ (sf.GT @ q)) <= 1e-12 * max(1.0, abs(Gx @ q))

    scal = _Scaling(cone, _interior_point(sf, rng), _interior_point(sf, rng))
    kkt = _KKT(sf, scal)
    p = sf.A.shape[0]
    dx, dy = 1e6 * rng.standard_normal(sf.n), 1e6 * rng.standard_normal(p)
    dz = _random_cone_vec(sf, rng, scale=1e6)
    # right-hand sides that nearly solve the system, so the residual is a
    # small difference of large terms and shows any lost precision
    u = (sf.A.T @ dy + sf.GT @ dz) * (1.0 + 1e-12 * rng.standard_normal(sf.n))
    v = (sf.A @ dx) * (1.0 + 1e-12 * rng.standard_normal(p))
    w = sf.G @ dx - _WtW_per_block(cone, scal, scal.w2, dz)
    r1, r2, r3 = kkt._full_residual(u, v, w, dx, dy, dz)
    G_ld, dxl, dzl = sf.G.toarray().astype(ld), dx.astype(ld), dz.astype(ld)
    assert np.array_equal(
        r1, (u.astype(ld) - (sf.A.T.astype(ld) @ dy.astype(ld) + G_ld.T @ dzl)).astype(float))
    assert np.array_equal(r2, (v.astype(ld) - sf.A.astype(ld) @ dxl).astype(float))
    WtWdz = _WtW_per_block(cone, scal, scal.w2.astype(ld), dzl)
    assert np.array_equal(r3, (w.astype(ld) - G_ld @ dxl + WtWdz).astype(float))


def test_long_double_products_are_rounded_to_double(monkeypatch):
    # q, ds and the cone right-hand sides of the KKT solves (w_tilde, and the
    # refinement residual r3) are accumulated in long double and rounded to
    # double, so both uses of q see the same vector
    dtypes = set()

    def recording(method):
        def wrapped(self, *args):
            out = method(self, *args)
            dtypes.add(out.dtype)
            return out
        return wrapped

    raw_solve = _KKT._raw_solve
    monkeypatch.setattr(_KKT, "_raw_solve",
                        lambda self, u, v, w: dtypes.add(w.dtype) or raw_solve(self, u, v, w))
    for name in ("mult_Wt_lam_solve_extended", "ds_from_dz"):
        monkeypatch.setattr(_Scaling, name, recording(getattr(_Scaling, name)))
    inst = gen_instance("dense(2,6)", 1)
    r = solve_relaxation(inst.f, family_for_method("C", inst.f), inst.box).result
    assert r.status == "optimal"
    assert dtypes == {np.dtype(np.float64)}


@pytest.mark.parametrize("tag,method", [("dense(2,6)", "C"), ("A6", "M"),
                                        ("dense(3,8)", "tssos-sos")],
                         ids=["dense26_C", "A6_M", "dense38_tssos"])
def test_kkt_matrix_matches_dense_formula(tag, method):
    # the KKT matrix is [[H, A', Gl'], [A, 0, 0], [Gl, 0, -diag(w2)]] with H
    # the sum of the block terms, on the unknowns (dx, dy, dz_lin); it is
    # sparse for every size: dense(2,6)/C has 16 PSD blocks and 64 linear
    # rows, A6/M 180 linear rows and no block; dense(3,8)/tssos-sos has one
    # 35x35 moment block, whose Schur complement takes the sparse formula
    sf = _StandardForm(_lowered(tag, method))
    if method == "tssos-sos":
        assert max(sf.cone.sizes) > DENSE_BLOCK_MAX
        assert isinstance(sf.blocks[np.argmax(sf.cone.sizes)], _SparseBlock)
    rng = np.random.default_rng(3)
    scal = _Scaling(sf.cone, _interior_point(sf, rng), _interior_point(sf, rng))
    kkt = _KKT(sf, scal)
    p, l = sf.A.shape[0], sf.l
    Gl = sf.G[:l].toarray()
    H = np.zeros((sf.n, sf.n))
    for blk, (g, i), o in zip(sf.blocks, sf.cone.slots, sf.cone.offsets):
        m, cols, Wi = blk.m, blk.cols, scal.Winv[g][i]
        F = (-sf.G[o:o + m * m][:, cols].T).toarray().reshape(len(cols), m, m)
        T = np.einsum("ab,nbc,cd->nad", Wi, F, Wi)
        H[np.ix_(cols, cols)] += np.tensordot(F, T, axes=([1, 2], [1, 2]))
    ref = np.block([[H, sf.A.T, Gl.T],
                    [sf.A, np.zeros((p, p)), np.zeros((p, l))],
                    [Gl, np.zeros((l, p)), -np.diag(scal.w2)]])
    assert sps.issparse(kkt.M)
    assert np.max(np.abs(kkt.M.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))


def _pattern_by_unique(sf):
    """The KKT pattern's arrays as np.unique over every coordinate gives them."""
    n, p = sf.n, sf.A.shape[0]
    N = n + p + sf.l
    Gl = sf.G[: sf.l].tocoo()
    ai, aj = np.nonzero(sf.A)
    blk = [np.meshgrid(b.cols, b.cols, indexing="ij") for b in sf.blocks]
    lower_r = np.concatenate([n + ai, n + p + Gl.row])
    lower_c = np.concatenate([aj, Gl.col])
    diag = np.arange(N)
    rows = np.concatenate([diag, *(i.ravel() for i, _ in blk), lower_r, lower_c])
    cols = np.concatenate([diag, *(j.ravel() for _, j in blk), lower_c, lower_r])
    keys, slot = np.unique(cols * N + rows, return_inverse=True)
    col = keys // N
    k = N + sum(i.size for i, _ in blk)
    base = np.zeros(len(keys))
    base[slot[k:]] = np.concatenate([sf.A[ai, aj], Gl.data] * 2)
    return {"indices": (keys % N).astype(np.int32), "col": col,
            "indptr": np.searchsorted(col, np.arange(N + 1)).astype(np.int32),
            "diag": slot[:N], "hslots": slot[N:k], "base": base}


@pytest.mark.parametrize("tag,method", [("dense(2,6)", "C"), ("A6", "M"),
                                        ("dense(3,8)", "tssos-sos"), ("S(2,4)", "T")],
                         ids=["dense26_C", "A6_M", "dense38_tssos", "S24_T"])
def test_kkt_pattern_matches_unique_build(tag, method):
    # the pattern's stored entries and slots, found by one sort of the
    # coordinate keys and a search, are those of np.unique with its inverse
    sf = _StandardForm(_lowered(tag, method))
    for name, want in _pattern_by_unique(sf).items():
        got = getattr(sf.kkt_pattern, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _superlu_bases(arr):
    """The SuperLU objects among the bases of arr's chain of views."""
    out = []
    while arr is not None:
        if isinstance(arr, spla.SuperLU):
            out.append(arr)
        arr = getattr(arr, "base", None)
    return out


@pytest.mark.parametrize("tag,method", [("A6", "M"), ("dense(2,6)", "C"), ("dense(3,4)", "H"),
                                        ("dense(3,8)", "tssos-sos")],
                         ids=["A6_M", "dense26_C", "dense34_H", "dense38_tssos"])
def test_stored_ordering_factors_bit_for_bit(monkeypatch, tag, method):
    # the pattern keeps the COLAMD ordering of the first factorization and
    # factors later matrices, relabelled by it, in their natural order; on
    # the equilibrated KKT matrices of iterations 2-4 the solves must be the
    # bits of a fresh splu with COLAMD.  This relies on SuperLU's pivot tie
    # order and on splu running in symmetric mode for "NATURAL", so it
    # guards the scipy range that pyproject.toml allows
    captured = []
    factor = _KKTPattern.factor

    def recording(self, Ms):
        captured.append((self, Ms.copy()))
        return factor(self, Ms)

    monkeypatch.setattr(_KKTPattern, "factor", recording)
    inst = gen_instance(tag, 1)
    solve_relaxation(inst.f, family_for_method(method, inst.f), inst.box, "min")
    pattern = captured[0][0]
    assert len(captured) >= 4 and all(pat is pattern for pat, _ in captured)
    # the ordering is a copy: a view of perm_c would keep the first
    # factorization alive for the whole solve
    for arr in (pattern.perm, pattern.iperm, pattern.gather, pattern.P.data):
        assert not _superlu_bases(arr)
    rng = np.random.default_rng(5)
    for _, Ms in captured[1:4]:
        fresh = spla.splu(Ms)
        assert np.array_equal(fresh.perm_c, pattern.perm)
        lu, solve = pattern.factor(Ms)
        for b in (rng.standard_normal(Ms.shape[0]), np.ones(Ms.shape[0])):
            assert np.array_equal(solve(b), fresh.solve(b))
        assert np.array_equal(lu.U.diagonal(), fresh.U.diagonal())


def _lowered(tag, method):
    inst = gen_instance(tag, 1)
    prog = assemble_relaxation(inst.f, family_for_method(method, inst.f), inst.box)
    return prog.lowered(SolverConfig().gmc_denominator_cap)


def _single_block():
    # one 3x3 block and no linear rows: the cone has no orthant part
    p = prog(3); p.c[:] = [1, -1, 1]
    E = [np.zeros((3, 3)) for _ in range(3)]
    for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
        E[k][a, b] = E[k][b, a] = 1.0
    p.add_block(3, entries(dict(enumerate(E))), const(np.eye(3)))
    return p


def _concat(lin, mats):
    """A cone vector from its orthant part and its blocks, in program order."""
    return np.concatenate([lin, *(M.ravel() for M in mats)])


def _sym2(M):
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("build", [partial(_lowered, "dense(2,6)", "C"),
                                   partial(_lowered, "A6", "M"), _single_block],
                         ids=["dense26_C", "A6_M", "single_block"])
def test_batched_cone_ops_match_per_block_formulas(build):
    # the solver processes the blocks of one size as one stack (dense(2,6)/C
    # interleaves sizes 4, 3 and 2; A6/M has no blocks); every result must
    # be, bit for bit, the one of a loop over the blocks in program order
    sf = _StandardForm(build())
    cone = sf.cone
    rng = np.random.default_rng(11)
    ld = np.longdouble
    s, z = _interior_point(sf, rng), _interior_point(sf, rng)
    u, v = _random_cone_vec(sf, rng), _random_cone_vec(sf, rng)
    for x in (s, u, u.astype(ld)):
        assert np.array_equal(cone.stack(cone.lin(x), cone.batch(x)), x)
    scal = _Scaling(cone, s, z)

    ref = {"R": [], "Rinv": [], "sig": [], "Wmat": [], "Winv": [], "R_ld": []}
    for S, Z in zip(cone.mats(s), cone.mats(z)):
        Ls, Lz = np.linalg.cholesky(S), np.linalg.cholesky(Z)
        U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
        R = Ls @ Vt.T / np.sqrt(sig)
        Rinv = (U / np.sqrt(sig)).T @ Lz.T
        for name, val in zip(ref, (R, Rinv, sig, (R @ R.T).astype(ld), Rinv.T @ Rinv,
                                   R.astype(ld))):
            ref[name].append(val)
    for name, blocks in ref.items():
        assert all(np.array_equal(getattr(scal, name)[g][i], val)
                   for (g, i), val in zip(cone.slots, blocks)), name
    R, Rinv, sig, Wmat, Winv, R_ld = ref.values()
    w2, lin = scal.w2, cone.lin

    def lam_solve(d):
        return _concat(lin(d) / scal.lam_lin,
                       [D / (0.5 * (sg[:, None] + sg[None, :])) for sg, D in zip(sig, cone.mats(d))])

    def WtW_ld(d):
        return _concat(scal.w2_ld * lin(d), [Wm @ D @ Wm for Wm, D in zip(Wmat, cone.mats(d))])

    def step(d):
        worst = float(np.max(-lin(d) / scal.lam_lin, initial=0.0))
        for sg, D in zip(sig, cone.mats(d)):
            rt = np.sqrt(sg)
            worst = max(worst, float(-np.linalg.eigvalsh(_sym2(D / np.outer(rt, rt)))[0]))
        return math.inf if worst <= 0.0 else 1.0 / worst

    uu = lam_solve(u).astype(ld)
    q = _concat(np.sqrt(scal.w2_ld) * lin(uu),
                [_sym2(Rl @ D @ Rl.T) for Rl, D in zip(R_ld, cone.mats(uu))]).astype(float)
    ds = q - WtW_ld(v.astype(ld))
    lam = _concat(scal.lam_lin, [np.diag(sg) for sg in sig])
    checks = {
        "scale_z": (scal.scale_z(u), _concat(np.sqrt(w2) * lin(u),
                                             [_sym2(Ri.T @ D @ Ri) for Ri, D in zip(R, cone.mats(u))])),
        "scale_s": (scal.scale_s(u), _concat(lin(u) / np.sqrt(w2),
                                             [_sym2(Ri @ D @ Ri.T) for Ri, D in zip(Rinv, cone.mats(u))])),
        "WtW_inv_apply": (scal.WtW_inv_apply(u), _concat(
            lin(u) / w2, [_sym2(Wi @ D @ Wi) for Wi, D in zip(Winv, cone.mats(u))])),
        "WtW_apply_ld": (scal.WtW_apply_ld(u.astype(ld)), WtW_ld(u.astype(ld))),
        "lam": (scal.lam(), lam),
        "lam_solve": (scal.lam_solve(u), lam_solve(u)),
        "mult_Wt_lam_solve_extended": (scal.mult_Wt_lam_solve_extended(u), q),
        "ds_from_dz": (scal.ds_from_dz(q, v),
                       _concat(lin(ds), [_sym2(D) for D in cone.mats(ds)]).astype(float)),
        "step_to_boundary": (np.array([scal.step_to_boundary(d) for d in (u, v, lam)]),
                             np.array([step(d) for d in (u, v, lam)])),
        "_jordan": (_jordan(cone, u, v), _concat(lin(u) * lin(v), [
            0.5 * (U @ V + V @ U) for U, V in zip(cone.mats(u), cone.mats(v))])),
    }
    for name, (got, want) in checks.items():
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_step_to_boundary_is_nan_for_a_nan_block_direction():
    # eigvalsh returns finite eigenvalues for a NaN matrix, so the step of a
    # direction with one NaN block entry must be made non-finite explicitly,
    # as it is for a NaN orthant entry
    sf = _StandardForm(_lowered("dense(2,6)", "C"))
    rng = np.random.default_rng(5)
    scal = _Scaling(sf.cone, _interior_point(sf, rng), _interior_point(sf, rng))
    d = _random_cone_vec(sf, rng)
    assert math.isfinite(scal.step_to_boundary(d))
    d[sf.cone.offsets[3] + 1] = np.nan
    assert not math.isfinite(scal.step_to_boundary(d))


@pytest.mark.parametrize("call", [8, 11], ids=["predictor", "corrector"])
def test_nan_step_length_ends_the_solve_at_once(monkeypatch, call):
    # each iteration measures four step lengths in two pairs, the
    # predictor's first; one NaN among them ends the solve with
    # numerical_failure after its pair, on that iteration and with a finite
    # iterate, instead of a full step into NaN
    calls = []
    step_to_boundary = _Scaling.step_to_boundary

    def nan_once(self, d):
        calls.append(d)
        return math.nan if len(calls) == call + 1 else step_to_boundary(self, d)

    monkeypatch.setattr(_Scaling, "step_to_boundary", nan_once)
    inst = gen_instance("dense(2,6)", 1)
    r = solve_relaxation(inst.f, family_for_method("C", inst.f), inst.box).result
    assert r.status == "numerical_failure"
    assert (r.iterations, len(calls)) == (call // 4, call - call % 2 + 2)
    assert math.isfinite(r.primal) and math.isfinite(r.dual)
    assert np.all(np.isfinite(r.x)) and np.all(np.isfinite(r.z_lin))


def _shared_column_blocks():
    # column 1 is in both blocks, column 2's coefficient in the 3x3 block is
    # all zero, the linear row has an explicit zero, and the last block is
    # large enough for the sparse Schur formula (with an all-zero column too)
    p = prog(4); p.c[:] = [1, 1, 1, 1]
    p.add_ineq({0: 1.0, 2: 0.0}, 0.5)
    p.add_block(2, entries({0: sym([[1, 0], [0, 0]]), 1: sym([[0, 1], [1, 0]])}), const(np.eye(2)))
    p.add_block(3, entries({1: np.diag([1.0, 2.0, 3.0]), 2: np.zeros((3, 3))}), const(np.eye(3)))
    m = DENSE_BLOCK_MAX + 1
    rng = np.random.default_rng(2)
    coeff = {j: np.zeros((m, m)) for j in (0, 2, 3)}
    for j, M in coeff.items():
        if j != 2:
            a, b = rng.integers(0, m, 5), rng.integers(0, m, 5)
            M[a, b] = M[b, a] = rng.standard_normal(5)
    p.add_block(m, entries(coeff), const(np.eye(m)))
    return p


def _reference_G_h(p):
    """G and h as one CSR matrix per block, stacked, then cleaned up."""
    n, l = p.ncols, len(p.ineqs)
    indptr = np.cumsum([0] + [len(row.coeff) for row in p.ineqs])
    indices = np.fromiter((j for row in p.ineqs for j in row.coeff), int, indptr[-1])
    data = np.fromiter((-v for row in p.ineqs for v in row.coeff.values()), float, indptr[-1])
    pieces = [sps.csr_array((data, indices, indptr), shape=(l, n))]
    h = [-np.array([row.rhs for row in p.ineqs], dtype=float)]
    for blk in p.blocks:
        # each entry scattered into a dense -vec(F_col) column, both triangles
        m = blk.size
        F = np.zeros((m, m, n))
        for (col, i, j), v in blk.entries.items():
            F[i, j, col] = F[j, i, col] = -v
        pieces.append(sps.csr_array(F.reshape(m * m, n)))
        C = np.zeros((m, m))
        for (i, j), v in blk.const.items():
            C[i, j] = C[j, i] = v
        h.append(C.ravel())
    G = sps.vstack(pieces, format="csr")
    G.eliminate_zeros()
    G.sort_indices()
    return G, np.concatenate(h)


@pytest.mark.parametrize("build", [partial(_lowered, "dense(2,6)", "C"), _shared_column_blocks,
                                   _single_block, partial(_lowered, "A6", "M")],
                         ids=["dense26_C", "shared_column", "single_block", "A6_M"])
def test_standard_form_matches_sparse_slicing(monkeypatch, build):
    # G is made from its nonzeros in one pass and each block's coefficients
    # are read off G's rows; G and h must be, bit for bit, the stack of one
    # CSR matrix per block, and each block's coefficients those of slicing
    # the block's rows and columns out of the scaled G
    p = build()
    G_ref, h_ref = _reference_G_h(p)
    with monkeypatch.context() as mp:
        mp.setattr(_StandardForm, "_equilibrate", lambda self: None)
        raw = _StandardForm(p)
    assert raw.G.shape == G_ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(raw.G, name), getattr(G_ref, name)), name
    assert raw.G.data.dtype == G_ref.data.dtype and np.array_equal(raw.h, h_ref)

    sf = _StandardForm(p)
    assert [blk.m for blk in sf.blocks] == sf.cone.sizes
    for blk, o in zip(sf.blocks, sf.cone.offsets):
        m, cols = blk.m, blk.cols
        ref = (-sf.G[o:o + m * m][:, cols].T).toarray()
        if m <= DENSE_BLOCK_MAX:
            assert isinstance(blk, _DenseBlock) and np.array_equal(blk.F2, ref)
        else:
            # the sparse block's per-column entries scatter back to the same matrix
            F2 = np.zeros_like(ref)
            for kc, a, b, v in blk.groups:
                F2[kc[:, None], a * m + b] = v[..., 0]
            assert isinstance(blk, _SparseBlock) and np.array_equal(F2, ref)


def test_long_double_products_of_large_blocks_are_as_accurate():
    # above DENSE_BLOCK_MAX the long-double products are sums of exact
    # float64 products of slices; each entry must be within 2^-62 |A||B| of
    # the exact product, as numpy's long-double loop is (m 2^-64 |A||B|).
    # Up to DENSE_BLOCK_MAX the product is the loop's, bit for bit
    rng = np.random.default_rng(4)
    ld = np.longdouble
    k, m = 2, 3 * DENSE_BLOCK_MAX
    A = (rng.standard_normal((k, m, m)) * np.exp(rng.uniform(-8, 8, (k, m, 1)))).astype(ld) / 3
    B = rng.standard_normal((k, m, m)).astype(ld) / 7
    got = _matmul_ld(A, B)
    assert got.dtype == ld and got.shape == (k, m, m)
    scale = np.abs(A) @ np.abs(B)

    def exact(x):
        return Fraction(*x.as_integer_ratio())

    for kk, i, j in zip(rng.integers(0, k, 40), rng.integers(0, m, 40), rng.integers(0, m, 40)):
        want = sum(exact(A[kk, i, t]) * exact(B[kk, t, j]) for t in range(m))
        assert abs(exact(got[kk, i, j]) - want) <= Fraction(2) ** -62 * exact(scale[kk, i, j])
    s = DENSE_BLOCK_MAX
    As, Bs = A[:, :s, :s].copy(), B[:, :s, :s].copy()
    assert np.array_equal(_matmul_ld(As, Bs), As @ Bs)
