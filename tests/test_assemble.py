import hashlib

import numpy as np
import pytest

from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import brute_force_min, family_for_method, gen_instance
from patternrelax.ipm import solve_relaxation
from patternrelax.models import ModelPolicy, build_lasserre_model
from patternrelax.patterns import PatternFamily, chain_family, multilinear_family
from patternrelax.polynomials import Box, Polynomial, linearize
from patternrelax.program import export_sdpa


def value_of(f, fam, box, policy=None, sense="min"):
    prog = assemble_relaxation(f, fam, box, policy, sense)
    _, r = solve_relaxation(prog)
    assert r.status == "optimal", r.status
    return r.primal if sense == "min" else -r.primal


def random_poly(rng, n, support):
    return Polynomial(n, {a: float(rng.uniform(-1, 1)) for a in support})


def test_monotonicity_larger_family_tightens():
    rng = np.random.default_rng(14)
    for _ in range(8):
        support = {tuple(int(v) for v in rng.integers(0, 3, 2)) for _ in range(4)}
        support = {a for a in support if sum(a)} or {(1, 1)}
        f = random_poly(rng, 2, support)
        box = Box.unit(2)
        fam_small = multilinear_family(support)
        fam_big = PatternFamily(
            fam_small.patterns + chain_family(support).patterns, 2)
        v_small = value_of(f, fam_small, box)
        v_big = value_of(f, fam_big, box)
        assert v_big >= v_small - 1e-6


def test_mccormick_equals_vertex_on_unit_square():
    # Remark-level polytope equality for P = {0,1}^2: both models give the
    # same optimum for random linear objectives in the monomial variables
    rng = np.random.default_rng(15)
    support = {(1, 0), (0, 1), (1, 1)}
    box = Box([-1, -0.5], [1.0, 2.0])
    fam = multilinear_family({(1, 1)})
    for _ in range(50):
        f = random_poly(rng, 2, support)
        v_vertex = value_of(f, fam, box, ModelPolicy(multilinear="vertex"))
        v_mcc = value_of(f, fam, box, ModelPolicy(multilinear="mccormick"))
        assert abs(v_vertex - v_mcc) <= 1e-7 * (1.0 + abs(v_vertex))


def test_gamma_consistency_with_transformed_box():
    # optimizing over the Gamma-image pattern equals optimizing the base
    # pattern over the transformed box when the columns are
    # variable-independent
    rng = np.random.default_rng(16)
    box = Box([0.0, -1.0], [1.0, 1.0])
    cols = [(2, 0), (0, 2)]  # x1^2 in [0,1], x2^2 in [0,1]
    from patternrelax.polynomials import monomial_range

    ky = Box([monomial_range(c, box).lo for c in cols],
             [monomial_range(c, box).hi for c in cols])
    for _ in range(10):
        base_support = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        coeffs = [float(rng.uniform(-1, 1)) for _ in base_support]
        f_image = Polynomial(2, {
            (2 * a, 2 * b): c for (a, b), c in zip(base_support, coeffs)})
        f_base = Polynomial(2, {ab: c for ab, c in zip(base_support, coeffs)})
        m_img = build_lasserre_model(np.array(cols).T, 2, box)
        m_base = build_lasserre_model(np.eye(2, dtype=int), 2, ky)

        def opt(model, fobj, domain):
            from patternrelax.program import ConicProgram

            zero = (0, 0)
            monos = sorted({zero} | model.variables | fobj.support())
            col = {a: j for j, a in enumerate(monos)}
            prog = ConicProgram(len(monos), monos)
            obj = linearize(fobj, context="conic")
            for a, c in obj.coeffs.items():
                prog.c[col[a]] = c
            prog.add_eq({col[zero]: 1.0}, 1.0)
            for row in model.rows:
                coeff = {col[a]: c for a, c in row.form.coeffs.items()}
                if row.form.constant:
                    coeff[col[zero]] = coeff.get(col[zero], 0.0) + row.form.constant
                prog.add_ineq(coeff, 0.0)
            for blk in model.lmis:
                m = blk.size
                bc = {}
                const = np.zeros((m, m))
                for i in range(m):
                    for j in range(m):
                        e = blk.entries[i][j]
                        const[i, j] += e.constant
                        for a, c in e.coeffs.items():
                            bc.setdefault(col[a], np.zeros((m, m)))[i, j] += c
                if np.any(const):
                    bc.setdefault(col[zero], np.zeros((m, m)))
                    bc[col[zero]] += const
                prog.add_block(m, bc, np.zeros((m, m)))
            from patternrelax.ipm import solve

            return solve(prog)

        r_img = opt(m_img, f_image, box)
        r_base = opt(m_base, f_base, ky)
        assert r_img.status == r_base.status == "optimal"
        assert abs(r_img.primal - r_base.primal) <= 1e-6 * (1 + abs(r_base.primal))


def test_support_augmentation_warns_and_bounds():
    f = Polynomial(2, {(4, 0): 1.0, (1, 1): 1.0})
    fam = multilinear_family({(1, 1)})  # does not cover (4,0)
    with pytest.warns(UserWarning, match="not covered"):
        prog = assemble_relaxation(f, fam, Box.unit(2))
    _, r = solve_relaxation(prog)
    assert r.status == "optimal"
    # only box information is available for x1^4: bound is 0 + 0
    assert abs(r.primal) <= 1e-7


def test_max_sense_matches_negated_min():
    rng = np.random.default_rng(17)
    f = random_poly(rng, 2, {(1, 0), (0, 1), (1, 1), (2, 0)})
    box = Box.unit(2)
    fam = family_for_method("H", f)
    vmax = value_of(f, fam, box, sense="max")
    vmin_neg = value_of(-f, fam, box, sense="min")
    assert abs(vmax + vmin_neg) <= 1e-7 * (1 + abs(vmax))
    bf = brute_force_min(-f, box).value
    assert vmax >= -bf - 1e-6  # upper bound on max f


def test_duplicate_rows_are_merged():
    f = Polynomial(2, {(1, 1): 1.0})
    fam = PatternFamily(
        multilinear_family({(1, 1)}).patterns * 2, 2)  # same pattern twice
    policy = ModelPolicy(multilinear="mccormick")
    prog = assemble_relaxation(f, fam, Box.unit(2), policy)
    keys = set()
    for row in prog.ineqs:
        key = tuple(sorted((j, round(c, 12)) for j, c in row.coeff.items()))
        assert key not in keys
        keys.add(key)


def test_v0_pinned_and_homogeneous_rows():
    f = Polynomial(1, {(2,): 1.0, (1,): -1.0})
    prog = assemble_relaxation(f, chain_family({(2,)}), Box.unit(1))
    assert prog.eqs[0].coeff == {prog.meta["v0_col"]: 1.0}
    assert prog.eqs[0].rhs == 1.0
    for row in prog.ineqs:
        assert row.rhs == 0.0


# SHA-256 of the SDPA text of assembled programs, recorded when models were
# still merged pairwise; the one-pass merge must emit the same rows, blocks,
# pieces and aux columns in the same order.
PINNED_SDPA = [
    # vertex models with auxiliaries
    ("dense(3,4)", 1, "M", None,
     "f2c6f1c05cf69c2dd3d6600b87b1caa890ccefa820ffbf16aab65f4df0f85170"),
    # moment LMI blocks
    ("dense(2,6)", 1, "C", None,
     "2d1becfe9ef7d228e2a11f8ac85fd9431740591363c1937948d101cb1adf46c5"),
    # three-coordinate patterns fall back to pairwise McCormick rows
    ("dense(3,4)", 2, "M", ModelPolicy(vertex_cap=2),
     "dcb88f4e4a553c6c068002b61a81262331df863dd7fcda65390a8b831d62733d"),
]


@pytest.mark.parametrize("tag,seed,method,policy,digest", PINNED_SDPA)
def test_assembled_sdpa_is_pinned(tag, seed, method, policy, digest):
    inst = gen_instance(tag, seed)
    prog = assemble_relaxation(inst.f, family_for_method(method, inst.f), inst.box, policy)
    text = export_sdpa(prog.lowered())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
