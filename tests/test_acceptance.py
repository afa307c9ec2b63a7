"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (duality round-trip) audits every optimal solve collected while
criteria 3-6 run, so this module is meant to be executed as a whole file.
"""

import math
import time

import numpy as np
import pytest

from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import (
    brute_force_min,
    family_for_method,
    gen_instance,
    trivial_bounds,
)
from patternrelax.certificates import Certificate, CertificatePiece, verify_certificate
from patternrelax.ipm import solve
from patternrelax.models import ModelPolicy, build_lasserre_model, build_mccormick_model, build_shifted_model
from patternrelax.patterns import (
    Pattern,
    PatternFamily,
    dense_sos_family,
    make_circuit,
    make_sdsos,
    multilinear_family,
    univariate_sparse_family,
)
from patternrelax.pipeline import solve_relaxation
from patternrelax.polynomials import Box, Polynomial, degrees_up_to, minkowski_sum

SOLVES = []  # optimal relaxations, for criterion 7


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def solve_with_family(f, fam, box, sense="min", policy=None):
    rel = solve_relaxation(f, fam, box, sense, policy)
    if rel.result.status == "optimal":
        SOLVES.append(rel)
    return rel.result


def row_signature(model):
    return [{a if any(a) else "const": c for a, c in row.coeffs.items()}
            for row in model.rows if row.sense == ">="]


def contains_row(rows, want):
    return any(set(r) == set(want) and all(r[k] == want[k] for k in want)
               for r in rows)


def test_criterion_1_worked_examples():
    t0 = time.time()
    ok = True
    # (a) McCormick on [-1,1]^2: four sign-pattern inequalities
    P = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    rows = row_signature(build_mccormick_model(P, Box([-1, -1], [1, 1])))
    for s1, s2 in [(-1, -1), (1, -1), (-1, 1), (1, 1)]:
        want = {"const": 1.0, (1, 0): float(s1), (0, 1): float(s2),
                (1, 1): float(s1 * s2)}
        ok &= contains_row(rows, want)
    ok &= len(rows) == 4
    # (b) Lasserre with Gamma = diag(2,2), d=1 on [-1,1]x[-2,2]
    m = build_lasserre_model(np.diag([2, 2]), 1, Box([-1, -2], [1, 2]))
    ok &= len(m.lmis) == 1 and m.lmis[0].size == 3
    entry_vars = {alpha for alpha, _, _ in m.lmis[0].entries}
    ok &= entry_vars == {(0, 0), (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)}
    ok &= len(m.lmis[0].entries) == 6 and set(m.lmis[0].entries.values()) == {1.0}
    locs = row_signature(m)
    ok &= contains_row(locs, {(2, 0): 1.0, (4, 0): -1.0})
    ok &= contains_row(locs, {(0, 2): 4.0, (0, 4): -1.0})
    # (c) shifted multilinear example on [0,1]^2 x [1,2]
    box = Box([0, 0, 1], [1, 1, 2])
    base = build_mccormick_model(
        Pattern(frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}),
                kind="multilinear"), box)
    rows = row_signature(build_shifted_model((0, 0, 1), base, box))
    expected = [
        {(1, 1, 1): 1.0},
        {(1, 0, 1): 1.0, (1, 1, 1): -1.0},
        {(0, 1, 1): 1.0, (1, 1, 1): -1.0},
        {(0, 0, 1): 1.0, (1, 0, 1): -1.0, (0, 1, 1): -1.0, (1, 1, 1): 1.0},
        {(0, 0, 1): 1.0, "const": -1.0},
        {(0, 0, 1): -1.0, "const": 2.0},
    ]
    ok &= all(contains_row(rows, w) for w in expected) and len(rows) == 6
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"worked constraint sets reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_lifted_point_feasibility():
    t0 = time.time()
    rng = np.random.default_rng(100)
    worst = 0.0
    cases = []
    for tag, method in [("S(2,4)", "M"), ("S(2,4)", "C"), ("S(3,4)", "H"),
                        ("S(3,4)", "S"), ("S(2,6)", "T"), ("dense(2,4)", "MC")]:
        inst = gen_instance(tag, 3)
        fam = family_for_method(method, inst.f)
        prog = assemble_relaxation(inst.f, fam, inst.box)
        cases.append((prog.lowered(), inst.box))
    # circuits and shifted blocks enter through dedicated families
    f = Polynomial(1, {(6,): 1.0, (2,): -1.0, (0,): 1.0})
    prog = assemble_relaxation(f, univariate_sparse_family({0, 2, 6}),
                               Box([0.0], [3.0]))
    cases.append((prog.lowered(), Box([0.0], [3.0])))
    f2 = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -1.0})
    prog = assemble_relaxation(
        f2, PatternFamily([make_sdsos((1, 0), (0, 1))], 2), Box.full_space(2))
    cases.append((prog.lowered(), Box([-3, -3], [3, 3])))
    for lowered, box in cases:
        for x in box.sample(rng, 200):
            v = lowered.lift_point(x)
            worst = max(worst, lowered.max_violation(v))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"max lift violation {worst:.2e} over {200 * len(cases)} points "
                   f"({elapsed:.1f}s)")


def test_criterion_3_soundness_vs_oracle():
    t0 = time.time()
    combos = []
    for tag, seeds in [("S(2,6)", range(1, 8)), ("S(3,4)", range(1, 7)),
                       ("dense(2,4)", range(1, 7)), ("dense(3,4)", range(1, 7))]:
        combos.extend((tag, s) for s in seeds)
    checked = 0
    worst_gap = -math.inf
    for tag, seed in combos:
        inst = gen_instance(tag, seed)
        oracle = brute_force_min(inst.f, inst.box).value
        for method in ("M", "C", "H", "T"):
            fam = family_for_method(method, inst.f)
            result = solve_with_family(inst.f, fam, inst.box)
            assert result.status == "optimal", (tag, seed, method, result.status)
            gap = result.primal - oracle
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-6, (tag, seed, method, gap)
            checked += 1
    elapsed = time.time() - t0
    ok = checked >= 100 and elapsed < 300.0
    _report(3, ok, f"{checked} relaxations below the brute-force oracle "
                   f"(worst slack {worst_gap:.2e}, {elapsed:.0f}s)")


def test_criterion_4_exactness_cases():
    t0 = time.time()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):  # (a) univariate dense on [0,1]
        d = int(rng.integers(2, 7))
        f = Polynomial(1, {(k,): float(rng.uniform(-1, 1)) for k in range(d + 1)})
        top = 2 * math.ceil(d / 2)
        fam = PatternFamily(
            [Pattern(frozenset((k,) for k in range(top + 1)), kind="chain",
                     meta={"gamma": (1,), "steps": top})], 1)
        result = solve_with_family(f, fam, Box.unit(1))
        assert result.status == "optimal"
        oracle = brute_force_min(f, Box.unit(1)).value
        worst = max(worst, abs(result.primal - oracle))
        assert abs(result.primal - oracle) <= 1e-5
    worst_b = 0.0
    for _ in range(20):  # (b) bilinear + linear via McCormick
        f = Polynomial(2, {(1, 1): float(rng.uniform(-2, 2)),
                           (1, 0): float(rng.uniform(-1, 1)),
                           (0, 1): float(rng.uniform(-1, 1))})
        fam = multilinear_family(f.support())
        result = solve_with_family(f, fam, Box.unit(2),
                                   policy=ModelPolicy(vertex_cap=1))
        assert result.status == "optimal"
        oracle = brute_force_min(f, Box.unit(2)).value
        worst_b = max(worst_b, abs(result.primal - oracle))
        assert abs(result.primal - oracle) <= 1e-6
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _report(4, ok, f"univariate dense exact to {worst:.1e}, bilinear McCormick "
                   f"exact to {worst_b:.1e} ({elapsed:.0f}s)")


def univariate_infimum_on_nonneg_axis(f: Polynomial) -> float:
    """Derivative-root oracle for inf over x >= 0 (leading coefficient > 0)."""
    d = f.degree()
    coeffs = np.zeros(d + 1)
    for (k,), c in f.terms.items():
        coeffs[k] = c
    dcoeffs = np.array([k * coeffs[k] for k in range(1, d + 1)])
    best = coeffs[0]  # f(0)
    if np.any(dcoeffs):
        roots = np.roots(dcoeffs[::-1])
        for r in roots:
            if abs(r.imag) < 1e-9 and r.real > 0:
                best = min(best, f.evaluate([r.real]))
    return float(best)


def test_criterion_5_univariate_sparse_exactness():
    t0 = time.time()
    rng = np.random.default_rng(52)
    worst = 0.0
    done = 0
    while done < 20:
        k = int(rng.integers(1, 3))
        others = sorted(rng.choice(np.arange(1, 13), size=2 * k, replace=False))
        d = int(others[-1])
        if d <= 2 * k:
            continue
        A = [0] + [int(a) for a in others]
        terms = {(a,): float(rng.uniform(-1, 1)) for a in A}
        terms[(d,)] = abs(terms[(d,)]) + 0.1  # bounded below on R_+
        f = Polynomial(1, terms)
        fam = univariate_sparse_family(A)
        result = solve_with_family(f, fam, Box.nonneg_orthant(1))
        assert result.status == "optimal"
        oracle = univariate_infimum_on_nonneg_axis(f)
        err = abs(result.primal - oracle)
        worst = max(worst, err)
        assert err <= 1e-5, (A, terms, result.primal, oracle)
        done += 1
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _report(5, ok, f"20 sparse relaxations match the derivative-root oracle "
                   f"to {worst:.1e} ({elapsed:.0f}s)")


def coercive_tssos_instance(rng, even_only):
    B = degrees_up_to(2, 2)
    pool = sorted(minkowski_sum(B, B))
    terms = {(4, 0): 2.0 + rng.uniform(0, 1), (0, 4): 2.0 + rng.uniform(0, 1),
             (0, 0): rng.uniform(-1, 1)}
    for alpha in pool:
        if alpha in terms:
            continue
        if even_only and any(a % 2 for a in alpha):
            continue
        if sum(alpha) == 4 and not even_only:
            continue  # keep the quartic form diagonal-dominant
        if rng.uniform() < 0.4:
            terms[alpha] = rng.uniform(-0.5, 0.5)
    return Polynomial(2, terms)


def test_criterion_6_tssos_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(66)
    box = Box.full_space(2)
    worst = 0.0
    multi_block = 0
    for trial in range(20):
        f = coercive_tssos_instance(rng, even_only=trial % 2 == 0)
        fam_sparse = family_for_method("tssos-sos", f)
        multi_block += len(fam_sparse) > 1
        fam_dense = dense_sos_family(2, 2)
        r1 = solve_with_family(f, fam_sparse, box)
        r2 = solve_with_family(f, fam_dense, box)
        assert r1.status == r2.status == "optimal", (r1.status, r2.status)
        err = abs(r1.primal - r2.primal) / (1.0 + abs(r1.primal))
        worst = max(worst, err)
        assert err <= 1e-6, (trial, r1.primal, r2.primal)
    elapsed = time.time() - t0
    ok = multi_block >= 5 and elapsed < 120.0
    _report(6, ok, f"20 stabilized partitions match the dense block to {worst:.1e} "
                   f"({multi_block} genuinely sparse, {elapsed:.0f}s)")


def test_criterion_7_duality_round_trip():
    assert SOLVES, "criteria 3-6 must run before the duality audit"
    worst_gap = 0.0
    worst_lam = 0.0
    for rel in SOLVES:
        result = rel.result
        gap = abs(result.primal - result.dual) / (1.0 + abs(result.primal))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
        cert, report = rel.certify()
        assert report.passed, report.problems
        lam_err = abs(cert.lam - result.dual) / (1.0 + abs(result.dual))
        worst_lam = max(worst_lam, lam_err)
        assert lam_err <= 1e-6
    _report(7, True, f"{len(SOLVES)} optimal solves: gap <= {worst_gap:.1e}, "
                     f"certificates verified with lambda error <= {worst_lam:.1e}")


def test_criterion_8_circuit_checks():
    t0 = time.time()
    pat = make_circuit((2,), [(0,), (4,)])
    circuit = {k: pat.meta[k] for k in ("beta", "gammas", "lambdas")}
    # slack 0: x^4 - 2x^2 + 1 = (x^2 - 1)^2 passes as one circuit piece at
    # lambda = 0, and lowering its inner coefficient by 1e-6 fails
    ok = True
    for inner, passes in ((-2.0, True), (-(2.0 + 1e-6), False)):
        f = Polynomial(1, {(4,): 1.0, (2,): inner, (0,): 1.0})
        piece = CertificatePiece("circuit", {**circuit, "poly": dict(f.terms)})
        rep = verify_certificate(Certificate(0.0, "circuit", [piece]), f, Box.full_space(1))
        ok &= rep.passed == passes
    # SDSOS membership: accept monomial lifts, reject inflated midpoints
    rng = np.random.default_rng(88)
    for parity in ("even", "odd"):
        if parity == "even":
            sd = make_sdsos((2, 0), (0, 2))  # inner (2,2)
        else:
            sd = make_sdsos((1, 0), (0, 1))  # inner (1,1)
        f_any = Polynomial(2, {sd.meta["beta"]: 1.0})
        prog = assemble_relaxation(f_any, PatternFamily([sd], 2),
                                   Box.full_space(2))
        lowered = prog.lowered()
        accept = reject = 0
        for _ in range(500):
            x = rng.uniform(0.05, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
            v = lowered.lift_point(x)
            accept += lowered.max_violation(v) <= 1e-9
            # inflate the inner monomial by 10%, outer values in (0, 1]
            v_bad = lowered.lift_point(x).copy()
            cols = {alpha: j for j, alpha in enumerate(lowered.col_exponents)
                    if alpha is not None}
            g0, g1 = sd.meta["gammas"]
            prod = math.sqrt(v_bad[cols[g0]] * v_bad[cols[g1]])
            v_bad[cols[sd.meta["beta"]]] = 1.1 * prod
            for col, kind, data in lowered.tower_lift:
                if kind == "geomean":
                    v_bad[col] = math.prod(
                        max(v_bad[g], 0.0) ** lam for g, lam in data)
            reject += lowered.max_violation(v_bad) > 1e-9
        ok &= accept == 500 and reject == 500
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _report(8, ok, f"circuit slack 0, sdsos accepts 500/500 and rejects 500/500 "
                   f"per parity ({elapsed:.0f}s)")


def test_criterion_9_figure5_qualitative():
    t0 = time.time()
    medians = {}
    for tag in ("A5", "A6"):
        for method in ("C", "M"):
            trivs = []
            for seed in range(1, 21):
                inst = gen_instance(tag, seed)
                fam = family_for_method(method, inst.f)
                rmin, rmax = (solve_relaxation(inst.f, fam, inst.box, sense)
                              for sense in ("min", "max"))
                assert rmin.result.status == rmax.result.status == "optimal", (tag, method, seed)
                tmin, tmax = trivial_bounds(inst.f, inst.box)
                trivs.append((rmax.bound - rmin.bound) / (tmax - tmin))
            medians[(tag, method)] = float(np.median(trivs))
    ok = (medians[("A5", "C")] <= medians[("A5", "M")]
          and medians[("A6", "C")] <= medians[("A6", "M")]
          and medians[("A5", "C")] <= 0.5 * medians[("A5", "M")])
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(9, ok, "median triv: A5 C={:.3f} M={:.3f}, A6 C={:.3f} M={:.3f} "
                   "({:.0f}s)".format(medians[("A5", "C")], medians[("A5", "M")],
                                      medians[("A6", "C")], medians[("A6", "M")],
                                      elapsed))


def test_criterion_10_solver_unit_suite():
    from test_ipm import CASES

    assert len(CASES) >= 30
    failures = []
    for name, build, status, value in CASES:
        result = solve(build())
        if result.status != status:
            failures.append((name, result.status))
            continue
        if status == "optimal" and abs(result.primal - value) > 1e-7 * (1 + abs(value)):
            failures.append((name, result.primal))
    _report(10, not failures,
            f"{len(CASES)} hand-built programs, failures: {failures or 'none'}")
