"""Hand-built LP/SDP programs with closed-form answers, plus IPM invariants."""

import math

import numpy as np
import pytest

from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import family_for_method, gen_instance, solve_instance
from patternrelax.ipm import (_KKT, SolveResult, SolverConfig, _ConeVec, _Scaling,
                              _StandardForm, solve)
from patternrelax.program import ConicProgram


def prog(n):
    return ConicProgram(n)


def sym(rows):
    return np.array(rows, dtype=float)


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
        p.add_block(2, {0: sym([[0, 1], [1, 0]])}, sym([[-1, 0], [0, -1]]))
        p.add_ineq({0: 1}, 0)
        return p
    add("inf_negative_diag_psd", inf4, "infeasible")

    def inf5():
        p = prog(1)
        p.add_block(2, {0: sym([[1, 0], [0, 0]])}, sym([[0, 2], [2, 0.1]]))
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
        p.add_block(2, {0: sym([[1, 0], [0, 0]])}, sym([[0, 0], [0, 1]]))
        return p
    add("unb_psd_ray", unb4, "unbounded")

    # --- semidefinite -----------------------------------------------------
    def sdp1():
        p = prog(2); p.c[:] = [0, 1]
        p.add_block(2, {0: sym([[0, 1], [1, 0]]), 1: sym([[0, 0], [0, 1]])},
                    sym([[1, 0], [0, 0]]))
        return p
    add("sdp_moment_v2", sdp1, "optimal", 0.0)

    def sdp2():
        p = prog(1); p.c[:] = [1]
        p.add_block(2, {0: sym([[1, 0], [0, 1]])}, sym([[0, 1], [1, 0]]))
        return p
    add("sdp_abs_bound", sdp2, "optimal", 1.0)

    def sdp3():
        p = prog(2); p.c[:] = [1, 1]
        p.add_block(2, {0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])},
                    sym([[0, 1], [1, 0]]))
        return p
    add("sdp_amgm", sdp3, "optimal", 2.0)

    def sdp4():
        p = prog(2); p.c[:] = [1, 0]
        p.add_block(2, {0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])},
                    sym([[0, 0.5], [0.5, 0]]))
        p.add_eq({0: 1, 1: 1}, 1.25)
        return p
    add("sdp_eq_slice", sdp4, "optimal", 0.25)

    def sdp5():
        p = prog(1); p.c[:] = [1]
        p.add_block(2, {0: sym([[1, 0], [0, 1]])}, sym([[-1, 0], [0, -2]]))
        return p
    add("sdp_lambda_max", sdp5, "optimal", 2.0)

    def sdp6():
        p = prog(1); p.c[:] = [-1]
        p.add_block(2, {0: sym([[-1, 0], [0, -1]])}, sym([[2, 1], [1, 2]]))
        return p
    add("sdp_lambda_min", sdp6, "optimal", -1.0)

    def sdp7():
        p = prog(2); p.c[:] = [1, 1]
        p.add_block(2, {0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])},
                    sym([[0, 1], [1, 0]]))
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
        p.add_block(3, coeff, sym([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
        p.add_eq({0: 1}, 0.5)
        return p
    add("sdp_fourth_moment", sdp8, "optimal", 0.0625)

    def sdp9():
        p = prog(1); p.c[:] = [1]
        p.add_block(2, {0: sym([[1, 0], [0, 1]])}, sym([[0, 0], [0, 0]]))
        return p
    add("sdp_degenerate_diag", sdp9, "optimal", 0.0)

    def sdp10():
        # two blocks sharing a variable: x >= 1 from block 1, minimize x + y
        p = prog(2); p.c[:] = [1, 1]
        p.add_block(2, {0: sym([[1, 0], [0, 1]])}, sym([[0, 1], [1, 0]]))
        p.add_block(2, {1: sym([[1, 0], [0, 1]])}, sym([[0, 2], [2, 0]]))
        return p
    add("sdp_two_blocks", sdp10, "optimal", 3.0)

    def mixed1():
        p = prog(3); p.c[:] = [1, 1, 1]
        p.add_block(2, {0: sym([[1, 0], [0, 0]]), 1: sym([[0, 0], [0, 1]])},
                    sym([[0, 1], [1, 0]]))
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


def _force_sparse_kkt(monkeypatch):
    """Route every KKT system through the sparse factorization; returns the
    list of matrices factored."""
    factored = []
    factor = _KKT._factor

    def recording_factor(self, Ms):
        factored.append(Ms)
        return factor(self, Ms)

    monkeypatch.setattr(_KKT, "EXTENDED_DIM", 0)
    monkeypatch.setattr(_KKT, "_factor", recording_factor)
    return factored


@pytest.mark.parametrize("name,build,status,value", CASES,
                         ids=[c[0] for c in CASES])
def test_handbuilt_program_sparse_kkt(monkeypatch, name, build, status, value):
    # every hand-built program gives the status, iteration count and value of
    # the dense factorization when its KKT systems are factored sparsely
    dense = solve(build())
    factored = _force_sparse_kkt(monkeypatch)
    result = solve(build())
    _check_case(name, result, status, value)
    assert not any(isinstance(M, np.ndarray) for M in factored)
    assert (result.status, result.iterations) == (dense.status, dense.iterations)
    if status == "optimal":
        assert abs(result.primal - dense.primal) <= 1e-12 * (1 + abs(dense.primal))


def test_sparse_kkt_shift_fallback_on_singular_matrix(monkeypatch):
    # columns 0 and 1 are equal in every constraint, so H and the KKT matrix
    # are singular; the factorization must fall back to the shifted matrix
    factored = _force_sparse_kkt(monkeypatch)
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
    assert math.isfinite(r.value)


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
    _, r = solve_instance(inst.f, fam, inst.box, sense=sense)
    reported = (r.primal, r.dual, r.residuals["primal"], r.residuals["dual"])
    assert reported in r.history


def test_refinement_evaluates_each_pass_once(monkeypatch):
    # a KKT solve runs at most six double-precision passes and then, once,
    # ten on the extended-precision LU; a KKT that already has that LU runs
    # only its ten passes, without repeating the double-precision ones
    calls = []  # per solve3 call: [extended LU on entry, residual evaluations]
    solve3, full_residual = _KKT.solve3, _KKT._full_residual

    def counting_solve3(self, u, v, w):
        calls.append([self.xlu is not None, 0])
        return solve3(self, u, v, w)

    def counting_residual(self, *args):
        calls[-1][1] += 1
        return full_residual(self, *args)

    monkeypatch.setattr(_KKT, "solve3", counting_solve3)
    monkeypatch.setattr(_KKT, "_full_residual", counting_residual)
    inst = gen_instance("dense(2,6)", 1)
    _, r = solve_instance(inst.f, family_for_method("C", inst.f), inst.box)
    assert r.status == "optimal"
    assert max(count for _, count in calls) <= 16
    with_extended = [count for had, count in calls if had]
    assert with_extended and max(with_extended) <= 10


def _interior_point(sf, rng):
    """A random strictly feasible cone vector for sf's cone."""
    mats = []
    for m in sf.sizes:
        B = rng.standard_normal((m, m))
        mats.append(B @ B.T + m * np.eye(m))
    return _ConeVec(rng.uniform(0.5, 2.0, sf.l), mats)


def _random_cone_vec(sf, rng, scale=1.0):
    mats = []
    for m in sf.sizes:
        B = scale * rng.standard_normal((m, m))
        mats.append(0.5 * (B + B.T))
    return _ConeVec(scale * rng.standard_normal(sf.l), mats)


@pytest.mark.parametrize("tag,method", [("dense(2,6)", "C"), ("A6", "M")],
                         ids=["dense26_C", "A6_M"])
def test_block_products_match_tensordot_formulas(tag, method):
    # the solver applies G, G' and the cone inner product through cached
    # (columns x m*m) coefficient matrices, and evaluates the KKT residual on
    # cached long-double data; each must give the same bits as the plain
    # tensordot and dense long-double formulas below
    inst = gen_instance(tag, 1)
    prog = assemble_relaxation(inst.f, family_for_method(method, inst.f), inst.box)
    sf = _StandardForm(prog.lowered(SolverConfig().gmc_denominator_cap))
    rng = np.random.default_rng(7)
    ld = np.longdouble

    x = rng.standard_normal(sf.n)
    q = _random_cone_vec(sf, rng)
    Gx = sf.G_apply(x)
    assert np.array_equal(Gx.lin, sf.Gl @ x)
    for (m, cols, F, _), M in zip(sf.blocks, Gx.mats):
        ref = -np.tensordot(x[cols], F, axes=1) if len(cols) else np.zeros((m, m))
        assert np.array_equal(M, ref)
    ref = sf.Gl.T @ q.lin
    for (m, cols, F, _), Q in zip(sf.blocks, q.mats):
        if len(cols):
            ref[cols] += -np.tensordot(F, Q, axes=([1, 2], [0, 1]))
    GTq = sf.GT_apply(q)
    assert np.array_equal(GTq, ref)
    ref = float(Gx.lin @ q.lin)
    for M, N in zip(Gx.mats, q.mats):
        ref += float(np.tensordot(M, N))
    assert Gx.dot(q) == ref
    assert abs(Gx.dot(q) - x @ GTq) <= 1e-12 * max(1.0, abs(ref))

    scal = _Scaling(_interior_point(sf, rng), _interior_point(sf, rng))
    kkt = _KKT(sf, scal)
    p = sf.A.shape[0]
    dx, dy = 1e6 * rng.standard_normal(sf.n), 1e6 * rng.standard_normal(p)
    dz = _random_cone_vec(sf, rng, scale=1e6)
    # right-hand sides that nearly solve the system, so the residual is a
    # small difference of large terms and shows any lost precision
    u = (sf.A.T @ dy + sf.GT_apply(dz)) * (1.0 + 1e-12 * rng.standard_normal(sf.n))
    v = (sf.A @ dx) * (1.0 + 1e-12 * rng.standard_normal(p))
    w = _ConeVec(sf.Gl @ dx - scal.w2 * dz.lin,
                 [G - Wm @ Dz @ Wm for G, Wm, Dz in zip(sf.G_apply(dx).mats,
                                                         scal.Wmat, dz.mats)])
    r1, r2, r3 = kkt._full_residual(u, v, w, dx, dy, dz)
    dxl = dx.astype(ld)
    gtz = sf.Gl.T.astype(ld) @ dz.lin.astype(ld)
    for (m, cols, F, _), Dz in zip(sf.blocks, dz.mats):
        if len(cols):
            gtz[cols] += -np.tensordot(F.astype(ld), Dz.astype(ld), axes=([1, 2], [0, 1]))
    assert np.array_equal(
        r1, (u.astype(ld) - (sf.A.T.astype(ld) @ dy.astype(ld) + gtz)).astype(float))
    assert np.array_equal(r2, (v.astype(ld) - sf.A.astype(ld) @ dxl).astype(float))
    assert np.array_equal(r3.lin, (w.lin.astype(ld) - sf.Gl.astype(ld) @ dxl
                                   + scal.w2.astype(ld) * dz.lin.astype(ld)).astype(float))
    for k, (m, cols, F, _) in enumerate(sf.blocks):
        Gdx = -np.tensordot(dxl[cols], F.astype(ld), axes=1) if len(cols) \
            else np.zeros((m, m), dtype=ld)
        Wm = scal.Wmat[k]
        ref = w.mats[k].astype(ld) - Gdx + Wm @ dz.mats[k].astype(ld) @ Wm
        assert np.array_equal(r3.mats[k], ref.astype(float))


@pytest.mark.parametrize("tag,method,sparse", [("dense(2,6)", "C", False), ("A6", "M", True)],
                         ids=["dense26_C", "A6_M"])
def test_kkt_matrix_matches_dense_formula(tag, method, sparse):
    # the KKT matrix is [[Gl' diag(1/w2) Gl + sum of block terms, A'], [A, 0]];
    # A6/M (dimension 472) is filled into the sparse pattern, dense(2,6)/C is
    # small enough to stay a dense array, which the extended LU needs
    inst = gen_instance(tag, 1)
    prog = assemble_relaxation(inst.f, family_for_method(method, inst.f), inst.box)
    sf = _StandardForm(prog.lowered(SolverConfig().gmc_denominator_cap))
    rng = np.random.default_rng(3)
    scal = _Scaling(_interior_point(sf, rng), _interior_point(sf, rng))
    kkt = _KKT(sf, scal)
    p = sf.A.shape[0]
    H = (sf.Gl.T / scal.w2) @ sf.Gl
    for (m, cols, F, _), Wi in zip(sf.blocks, scal.Winv):
        if len(cols):
            T = np.einsum("ab,nbc,cd->nad", Wi, F, Wi)
            H[np.ix_(cols, cols)] += np.tensordot(F, T, axes=([1, 2], [1, 2]))
    ref = np.block([[H, sf.A.T], [sf.A, np.zeros((p, p))]])
    assert isinstance(kkt.M, np.ndarray) != sparse
    M = kkt.M.toarray() if sparse else kkt.M
    assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))
