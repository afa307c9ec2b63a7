import math

import numpy as np
import pytest

from patternrelax.models import (
    BuilderError,
    ModelPolicy,
    PatternTooWide,
    SupportOverlap,
    build_bound_factor_model,
    build_circuit_model,
    build_dense_moment_model,
    build_lasserre_model,
    build_mccormick_model,
    build_multilinear_model,
    build_shifted_model,
    build_sparse_sos_moment_model,
    merge_models,
    model_for_pattern,
)
from patternrelax.patterns import (
    Pattern,
    chain_family,
    expression_tree_family,
    h_family,
    make_sdsos,
    multilinear_family,
    shifted_chain_family,
    truncated_submonoid_family,
    univariate_sparse_family,
)
from patternrelax.polynomials import Box, Polynomial


def row_map(row):
    d = dict(row.form.coeffs)
    if row.form.constant:
        d["const"] = row.form.constant
    return d


def rows_as_sets(model):
    return [row_map(r) for r in model.rows if r.sense == ">="]


def assert_rows_match(model, expected):
    got = rows_as_sets(model)
    for want in expected:
        assert any(
            set(w) == set(g) and all(abs(w[k] - g[k]) == 0.0 for k in w)
            for g in got for w in [want]
        ), f"missing row {want} in {got}"
    assert len(got) == len(expected)


def test_mccormick_worked_example_sym():
    # [-1,1]^2: the four inequalities with unit coefficients
    P = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    m = build_mccormick_model(P, Box([-1, -1], [1, 1]))
    expected = [
        {"const": 1.0, (1, 0): -1.0, (0, 1): -1.0, (1, 1): 1.0},
        {"const": 1.0, (1, 0): 1.0, (0, 1): -1.0, (1, 1): -1.0},
        {"const": 1.0, (1, 0): -1.0, (0, 1): 1.0, (1, 1): -1.0},
        {"const": 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0},
    ]
    assert_rows_match(m, expected)


def test_mccormick_unit_box_rows():
    P = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    m = build_mccormick_model(P, Box.unit(2))
    expected = [
        {(1, 1): 1.0},
        {(1, 0): 1.0, (1, 1): -1.0},
        {(0, 1): 1.0, (1, 1): -1.0},
        {"const": 1.0, (1, 0): -1.0, (0, 1): -1.0, (1, 1): 1.0},
    ]
    assert_rows_match(m, expected)


def test_mccormick_degenerate_interval_collapses():
    P = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    m = build_mccormick_model(P, Box([0.5, 0.0], [0.5, 1.0]))
    # rows imply v11 == 0.5*v01 through two opposite inequality pairs
    vals = []
    for r in m.rows:
        c = r.form.coeffs
        if set(c) == {(1, 1), (0, 1)}:
            vals.append((c[(1, 1)], c[(0, 1)]))
    assert len(vals) >= 2


def test_multilinear_vertex_worked_example():
    # [-1,1]^2: mixture over the four sign vertices
    P = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    m = build_multilinear_model(P, Box([-1, -1], [1, 1]))
    assert m.aux_count == 4
    eq_rows = [r for r in m.rows if r.sense == "=="]
    assert len(eq_rows) == 4  # normalization + three coordinates
    pos_rows = [r for r in m.rows if r.sense == ">="]
    assert len(pos_rows) == 4  # lambda_p >= 0
    gid = next(iter(m.groups))
    assert m.groups[gid].kind == "vertex"
    verts = set(m.groups[gid].payload["vertices"])
    assert verts == {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}


def test_multilinear_trivial_pattern():
    P = Pattern(frozenset({(0, 0)}), kind="multilinear")
    m = build_multilinear_model(P, Box.unit(2))
    # one vertex: sum lambda = 1 plus lambda >= 0
    assert m.aux_count == 1
    assert len([r for r in m.rows if r.sense == "=="]) == 1


def test_multilinear_transformed_cube():
    # {0,3}^2 on [0,1]^2 behaves like {0,1}^2 with y_i = x_i^3
    P = Pattern(frozenset({(0, 0), (3, 0), (0, 3), (3, 3)}), kind="multilinear")
    m = build_multilinear_model(P, Box.unit(2))
    gid = next(iter(m.groups))
    assert set(m.groups[gid].payload["vertices"]) == {
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    rng = np.random.default_rng(0)
    for x in Box.unit(2).sample(rng, 50):
        assert m.max_violation(x) <= 1e-9


def test_multilinear_width_cap():
    alpha = (1,) * 13
    P = Pattern(frozenset({alpha, tuple([0] * 13)}), kind="multilinear",
                meta={"base_alpha": alpha})
    with pytest.raises(PatternTooWide):
        build_multilinear_model(P, Box.unit(13))


def test_bound_factor_rows():
    x = Polynomial.variable(1, 0)
    g = [x, 1 - x]
    m = build_bound_factor_model(g, {(1, 1)}, Box.unit(1))
    assert rows_as_sets(m) == [{(1,): 1.0, (2,): -1.0}]
    # B = N^2_2 in two factor indices: 5 nontrivial rows (empty product skipped)
    m = build_bound_factor_model(
        g, {(i, j) for i in range(3) for j in range(3 - i)}, Box.unit(1))
    assert len(m.rows) == 5
    assert {(1,): 1.0, (2,): -1.0} in rows_as_sets(m)


def test_bound_factor_product_of_two_box_facets():
    x1 = Polynomial(2, {(1, 0): 1.0})
    x2 = Polynomial(2, {(0, 1): 1.0})
    one = Polynomial.constant(2, 1.0)
    g = [x1, one - x1, x2, one - x2]
    m = build_bound_factor_model(g, {(1, 0, 1, 0)}, Box.unit(2))
    assert rows_as_sets(m) == [{(1, 1): 1.0}]


def test_lasserre_worked_example_diag22():
    m = build_lasserre_model(np.diag([2, 2]), 1, Box([-1, -2], [1, 2]))
    (block,) = m.lmis
    assert block.size == 3
    entries = {}
    for i in range(3):
        for j in range(3):
            e = block.entries[i][j]
            key = e.constant if not e.coeffs else next(iter(e.coeffs))
            entries[(i, j)] = key
    flat = set(entries.values())
    assert flat == {1.0, (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)}
    locs = rows_as_sets(m)
    assert {(2, 0): 1.0, (4, 0): -1.0} in locs
    assert {(0, 2): 4.0, (0, 4): -1.0} in locs


def test_lasserre_chain_sign_resolution():
    # (x1 x2^2 + 4)(8 - x1 x2^2) expands to 32 + 4 v12 - v24
    m = build_lasserre_model(np.array([[1], [2]]), 1, Box([-1, 1], [2, 2]))
    locs = rows_as_sets(m)
    assert {"const": 32.0, (1, 2): 4.0, (2, 4): -1.0} in locs
    (block,) = m.lmis
    assert block.size == 2


def test_lasserre_univariate_interval():
    m = build_lasserre_model(np.array([[1]]), 1, Box.unit(1))
    (block,) = m.lmis
    assert block.size == 2
    assert rows_as_sets(m) == [{(1,): 1.0, (2,): -1.0}]


def test_lasserre_one_sided_localizers():
    # on [0, inf) only the lower factor exists: x * x^{2 delta}
    m = build_lasserre_model(np.array([[1]]), 2, Box.nonneg_orthant(1))
    assert len(m.lmis) == 2  # moment block + localizer block
    mom, loc = m.lmis
    assert loc.multiplier_factors == (("mon_minus_lo", (1,)),)
    # full space: no localizer at all
    m = build_lasserre_model(np.array([[1]]), 2, Box.full_space(1))
    assert len(m.lmis) == 1


def test_dense_moment_model_examples():
    one = Polynomial.constant(1, 1.0)
    m = build_dense_moment_model([one], [[(0,), (1,)]])
    (block,) = m.lmis
    assert block.size == 2
    x = Polynomial.variable(1, 0)
    m = build_dense_moment_model([one, x, 1 - x], [[(0,), (1,)], [(0,)], [(0,)]])
    assert len(m.lmis) == 1 and len(m.rows) == 2
    assert {(1,): 1.0} in rows_as_sets(m)
    assert {"const": 1.0, (1,): -1.0} in rows_as_sets(m)
    m = build_dense_moment_model([one, x], [[(0,), (1,)], []])
    assert len(m.lmis) == 1 and not m.rows


def test_sparse_sos_moment_blocks():
    m = build_sparse_sos_moment_model([[(0,), (1,)]])
    (block,) = m.lmis
    assert block.size == 2
    # TSSOS-partition blocks {{0,2},{1}} of B={0,1,2}
    m = build_sparse_sos_moment_model([[(0,), (2,)], [(1,)]])
    assert m.lmis[0].size == 2
    assert rows_as_sets(m) == [{(2,): 1.0}]  # the 1x1 block [v2] as a row
    # univariate shifted blocks: entries v_{i+a+b}
    m = build_sparse_sos_moment_model([[(0,), (1,)]], shifts=[(3,)])
    (block,) = m.lmis
    assert block.entries[0][0].coeffs == {(3,): 1.0}
    assert block.entries[1][1].coeffs == {(5,): 1.0}
    assert block.multiplier_factors == (("monomial", (3,)),)


def test_shifted_model_worked_example():
    P = Pattern(frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}),
                kind="multilinear")
    box = Box([0, 0, 1], [1, 1, 2])
    base = build_mccormick_model(P, box)
    m = build_shifted_model((0, 0, 1), base, box)
    expected = [
        {(1, 1, 1): 1.0},
        {(1, 0, 1): 1.0, (1, 1, 1): -1.0},
        {(0, 1, 1): 1.0, (1, 1, 1): -1.0},
        {(0, 0, 1): 1.0, (1, 0, 1): -1.0, (0, 1, 1): -1.0, (1, 1, 1): 1.0},
        {(0, 0, 1): 1.0, "const": -1.0},
        {(0, 0, 1): -1.0, "const": 2.0},
    ]
    assert_rows_match(m, expected)


def test_shifted_chain_lmis():
    box = Box([-1, 1], [1, 2])
    base = build_lasserre_model(np.array([[1], [0]]), 2, box)
    m = build_shifted_model((0, 1), base, box)
    mom = m.lmis[0]
    assert mom.entries[0][0].coeffs == {(0, 1): 1.0}
    assert mom.entries[2][2].coeffs == {(4, 1): 1.0}
    loc = m.lmis[1]
    assert loc.entries[0][0].coeffs == {(0, 1): 1.0, (2, 1): -1.0}
    bounds = [r for r in m.rows if r.factors and len(r.factors) == 1]
    assert len(bounds) == 2


def test_shifted_model_overlap_rejected():
    box = Box.unit(2)
    base = build_lasserre_model(np.array([[1], [0]]), 1, box)
    with pytest.raises(SupportOverlap):
        build_shifted_model((1, 1), base, box)


def test_shift_zero_is_identity():
    box = Box.unit(2)
    base = build_lasserre_model(np.array([[1], [0]]), 1, box)
    assert build_shifted_model((0, 0), base, box) is base


def test_circuit_model_even_odd():
    pat = make_sdsos((1, 0), (0, 0))  # beta = (1,0), gammas (2,0),(0,0)
    m = build_circuit_model(pat, "R_full")
    assert m.gmcs[0].sign_mode == "odd"
    pat = make_sdsos((1, 0), (0, 1))
    m = build_circuit_model(pat, "R_full")
    assert m.gmcs[0].sign_mode == "odd"
    m = build_circuit_model(pat, "R_plus")
    assert m.gmcs[0].sign_mode == "even"
    even = make_sdsos((2, 0), (0, 2))  # beta (2,2) even
    m = build_circuit_model(even, "R_full")
    assert m.gmcs[0].sign_mode == "even"


def test_circuit_model_requires_even_gammas_on_full_space():
    pat = Pattern(frozenset({(1, 0), (0, 1), (1, 1)}), kind="circuit",
                  meta={"beta": (1, 1),
                        "gammas": ((2, 0), (0, 2)),
                        "lambdas": (0.5, 0.5)})
    odd = Pattern(frozenset({(1,), (2,), (3,)}), kind="circuit",
                  meta={"beta": (2,), "gammas": ((1,), (3,)),
                        "lambdas": (0.5, 0.5)})
    build_circuit_model(odd, "R_plus")
    with pytest.raises(BuilderError):
        build_circuit_model(odd, "R_full")


# ---------------------------------------------------------------------------
# lifted-point feasibility: monomial lifts satisfy every generated model


def _check_lift(model, box, samples=200, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    X = box.sample(rng, samples)
    worst = max(model.max_violation(x) for x in X)
    assert worst <= tol, f"lift violation {worst}"


FAMILY_CASES = [
    (multilinear_family, {(2, 1), (1, 3)}, Box([-1, -0.5], [1, 2])),
    (chain_family, {(2, 2), (3, 1)}, Box([-1, 0], [1.5, 1])),
    (shifted_chain_family, {(2, 3), (1, 1)}, Box.unit(2)),
    (h_family, {(2, 2), (0, 3)}, Box.unit(2)),
    (truncated_submonoid_family, {(3, 1), (0, 4)}, Box.unit(2)),
]


@pytest.mark.parametrize("builder,A,box", FAMILY_CASES)
def test_lifted_points_feasible_per_family(builder, A, box):
    policy = ModelPolicy()
    fam = builder(A)
    for pat in fam:
        model = model_for_pattern(pat, box, policy)
        _check_lift(model, box)


def test_lifted_points_feasible_tree_and_univariate():
    f = Polynomial(3, {(1, 1, 4): 1.0, (2, 0, 1): -2.0})
    for pat in expression_tree_family(f):
        _check_lift(model_for_pattern(pat, Box.unit(3), ModelPolicy()), Box.unit(3))
    fam = univariate_sparse_family({0, 2, 6})
    box = Box([0], [5.0])
    for pat in fam:
        _check_lift(model_for_pattern(pat, box, ModelPolicy()), box)


def test_lifted_points_feasible_circuits():
    rng = np.random.default_rng(4)
    pat_even = make_sdsos((2, 0), (0, 2))
    m = build_circuit_model(pat_even, "R_full")
    for _ in range(200):
        x = rng.uniform(-10, 10, 2)
        assert m.max_violation(x) <= 1e-9 * max(1.0, np.max(np.abs(x)) ** 8)
    pat_odd = make_sdsos((1, 0), (0, 1))
    m = build_circuit_model(pat_odd, "R_full")
    for _ in range(200):
        x = rng.uniform(-3, 3, 2)
        assert m.max_violation(x) <= 1e-9


def test_pairwise_mccormick_fallback_for_wide_patterns():
    alpha = (1,) * 8
    fam = multilinear_family({alpha})
    model = model_for_pattern(fam.patterns[0], Box.unit(8), ModelPolicy(vertex_cap=6))
    assert model.aux_count == 0  # no 2^8 vertex mixture
    _check_lift(model, Box.unit(8), samples=100)


def test_merge_of_many_vertex_models_lifts_without_recursion():
    box = Box([-1.0, 0.5], [2.0, 3.0])
    pat = multilinear_family({(1, 1)}).patterns[0]
    model = merge_models((build_multilinear_model(pat, box) for _ in range(5000)), 2)
    assert model.aux_count == 5000 * 4
    assert sorted(model.groups) == list(range(5000))
    assert sorted({row.group for row in model.rows}) == list(range(5000))
    assert model.max_violation(np.array([0.3, 1.7])) <= 1e-9


def test_model_dump_mentions_all_constraint_kinds():
    pat = make_sdsos((1, 0), (0, 1))
    m = build_circuit_model(pat, "R_full")
    text = m.dump()
    assert "gmc" in text and "row" in text
    m2 = build_lasserre_model(np.array([[1]]), 1, Box.unit(1))
    assert "lmi" in m2.dump()
