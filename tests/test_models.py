import functools
import itertools
import math
import operator
import struct

import numpy as np
import pytest

from patternrelax import models
from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import brute_force_min, family_for_method
from patternrelax.models import (
    BuilderError,
    ModelPolicy,
    MomentModel,
    PatternTooWide,
    SupportOverlap,
    _coordinate_ranges,
    _pattern_base,
    build_circuit_model,
    build_lasserre_model,
    build_mccormick_model,
    build_multilinear_model,
    build_shifted_model,
    model_for_pattern,
)
from patternrelax.patterns import (
    Pattern,
    PatternFamily,
    chain_family,
    expression_tree_family,
    gamma_image,
    h_family,
    make_sdsos,
    multilinear_family,
    shifted_chain_family,
    sos_block_pattern,
    truncated_submonoid_family,
    univariate_sparse_family,
)
from patternrelax.pipeline import solve_relaxation
from patternrelax.polynomials import (COEFF_DROP_TOL, Box, Exponent, Polynomial, exp_add,
                                      exp_support, monomial_range, unit_exponent, zero_exponent)
from patternrelax.program import Piece


def row_map(row):
    """The row's coefficients, v_0's under the key "const"."""
    return {a if any(a) else "const": c for a, c in row.coeffs.items()}


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
        c = r.coeffs
        if set(c) == {(1, 1), (0, 1)}:
            vals.append((c[(1, 1)], c[(0, 1)]))
    assert len(vals) >= 2


# Reference copies of the hand-expanded bound-factor rows that
# models.add_bound_factor_rows replaces; the writer must give the same rows
# bit for bit. Only their names carry a _reference prefix.


def _reference_affine(coeffs: dict, zero: Exponent, constant: float) -> dict:
    """coeffs without those of magnitude at most COEFF_DROP_TOL, then v_0's
    term if constant is nonzero: a bound's constant is no noise however small,
    and without it an upper-bound row could cut off feasible points."""
    row = {a: c for a, c in coeffs.items() if abs(c) > COEFF_DROP_TOL}
    if constant:
        row[zero] = constant
    return row


def _reference_build_mccormick_model(P: Pattern, box: Box) -> MomentModel:
    """The four bound-factor products for a two-coordinate square, in v."""
    base = _pattern_base(P)
    supp, ranges = _coordinate_ranges(base, box)
    if len(supp) != 2:
        raise BuilderError("McCormick model needs exactly two active coordinates")
    i, j = supp
    gi = unit_exponent(P.n, i, base[i])
    gj = unit_exponent(P.n, j, base[j])
    gij = exp_add(gi, gj)
    (li, ui), (lj, uj) = ranges
    model = MomentModel(P.n)
    lo_i, up_i = ("mon_minus_lo", gi), ("up_minus_mon", gi)
    lo_j, up_j = ("mon_minus_lo", gj), ("up_minus_mon", gj)
    zero = zero_exponent(P.n)
    # (y_i - l_i)(y_j - l_j) >= 0 and the three sign variants, expanded; a
    # zero bound gives a zero coefficient, which is dropped
    model.add_row(_reference_affine({gij: 1.0, gi: -lj, gj: -li}, zero, li * lj),
                  factors=(lo_i, lo_j))
    model.add_row(_reference_affine({gij: -1.0, gi: uj, gj: li}, zero, -li * uj),
                  factors=(lo_i, up_j))
    model.add_row(_reference_affine({gij: -1.0, gi: lj, gj: ui}, zero, -ui * lj),
                  factors=(up_i, lo_j))
    model.add_row(_reference_affine({gij: 1.0, gi: -uj, gj: -ui}, zero, ui * uj),
                  factors=(up_i, up_j))
    return model


def _reference_bounds_model(model: MomentModel, alpha: Exponent, box: Box):
    rng = monomial_range(alpha, box)
    zero = zero_exponent(model.n)
    if math.isfinite(rng.lo):
        model.add_row(_reference_affine({alpha: 1.0}, zero, -rng.lo),
                      factors=(("mon_minus_lo", alpha),))
    if math.isfinite(rng.hi):
        model.add_row(_reference_affine({alpha: -1.0}, zero, rng.hi),
                      factors=(("up_minus_mon", alpha),))


def _reference_pairwise_mccormick(P: Pattern, box: Box) -> MomentModel:
    base = _pattern_base(P)
    supp = sorted(exp_support(base))
    model = MomentModel(P.n)
    for i, j in itertools.combinations(supp, 2):
        sub = Pattern(
            frozenset({zero_exponent(P.n), unit_exponent(P.n, i, base[i]),
                       unit_exponent(P.n, j, base[j]),
                       exp_add(unit_exponent(P.n, i, base[i]), unit_exponent(P.n, j, base[j]))}),
            kind="multilinear",
        )
        # a McCormick model has no auxiliaries and no piece
        mc = _reference_build_mccormick_model(sub, box)
        model.variables |= mc.variables
        model.rows += mc.rows
    for alpha in sorted(P.exponents):
        if sum(alpha):
            _reference_bounds_model(model, alpha, box)
    return model


def _row_bits(model):
    """Each row's sense, factors and (exponent, coefficient bits) in key order,
    so that the sign of a zero counts, and the model's variables."""
    return model.variables, [
        (r.sense, r.factors, r.aux, [(a, struct.pack("<d", c)) for a, c in r.coeffs.items()])
        for r in model.rows]


# bound values with signed zeros, negative ends and 1e-9, whose products
# (1e-18) fall below COEFF_DROP_TOL; 1e-15 is dropped as a coefficient
BOUND_ENDS = (-2.5, -1.0, -0.3, -1e-9, -0.0, 0.0, 1e-15, 1e-9, 0.7, 1.0, 2.0)


def _random_box(rng, n, ends=BOUND_ENDS):
    """Each coordinate [a, b] for two ends drawn from ends, a point range one
    time in four."""
    lower, upper = [], []
    for _ in range(n):
        a, b = (float(v) for v in rng.choice(ends, size=2))
        if rng.integers(4) == 0:
            b = a
        lo, hi = (a, b) if a <= b else (b, a)  # -0.0 <= 0.0 keeps both signs
        lower.append(lo)
        upper.append(hi)
    return Box(lower, upper)


def test_bound_factor_rows_match_the_hand_expanded_rows():
    rng = np.random.default_rng(27)
    tiny = Box([1e-9, 1e-9, -1e-9], [1.0, 2.0, 1e-9])  # constants 1e-18 must stay
    boxes = [tiny] + [_random_box(rng, 3) for _ in range(300)]
    for box in boxes:
        base = tuple(int(k) for k in rng.integers(1, 4, size=3))
        for pair in itertools.combinations(range(3), 2):
            corner = tuple(base[i] if i in pair else 0 for i in range(3))
            P = multilinear_family({corner}).patterns[0]
            assert (_row_bits(build_mccormick_model(P, box))
                    == _row_bits(_reference_build_mccormick_model(P, box)))
        cube = multilinear_family({base}).patterns[0]
        assert (_row_bits(models._pairwise_mccormick(cube, box))
                == _row_bits(_reference_pairwise_mccormick(cube, box)))
    # 1e-18 is kept as v_0's coefficient, with the writer's own product order
    rows = build_mccormick_model(multilinear_family({(1, 1, 0)}).patterns[0], tiny).rows
    assert rows[0].coeffs[(0, 0, 0)] == 1e-9 * 1e-9 < COEFF_DROP_TOL


def test_one_bound_factor_matches_the_bounds_rows():
    rng = np.random.default_rng(28)
    ends = BOUND_ENDS + (-math.inf, math.inf)
    for _ in range(300):
        box = _random_box(rng, 3, ends)
        alpha = tuple(int(k) for k in rng.integers(0, 4, size=3))
        new, ref = MomentModel(3), MomentModel(3)
        models.add_bound_factor_rows(new, (alpha,), box)
        _reference_bounds_model(ref, alpha, box)
        assert _row_bits(new) == _row_bits(ref)


def test_bound_factor_products_refuse_unbounded_coordinates():
    P = multilinear_family({(1, 1, 1)}).patterns[0]
    box = Box([0.0, -math.inf, 0.0], [1.0, 1.0, 1.0])
    for build in (models._pairwise_mccormick, _reference_pairwise_mccormick):
        with pytest.raises(BuilderError, match="finite bounds"):
            build(P, box)


def test_multilinear_vertex_worked_example():
    # [-1,1]^2: mixture over the four sign vertices
    P = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    m = build_multilinear_model(P, Box([-1, -1], [1, 1]))
    assert m.aux_count == 4
    eq_rows = [r for r in m.rows if r.sense == "=="]
    assert len(eq_rows) == 4  # normalization + three coordinates
    pos_rows = [r for r in m.rows if r.sense == ">="]
    assert len(pos_rows) == 4  # lambda_p >= 0
    assert m.piece.kind == "vertex"
    verts = set(m.piece.payload["vertices"])
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
    assert set(m.piece.payload["vertices"]) == {
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    _check_lift([P], Box.unit(2), samples=50)


def test_multilinear_width_cap():
    alpha = (1,) * 13
    P = Pattern(frozenset({alpha, tuple([0] * 13)}), kind="multilinear",
                meta={"base_alpha": alpha})
    with pytest.raises(PatternTooWide):
        build_multilinear_model(P, Box.unit(13))


def test_lasserre_worked_example_diag22():
    m = build_lasserre_model(np.diag([2, 2]), 1, Box([-1, -2], [1, 2]))
    (block,) = m.lmis
    assert block.size == 3
    # one upper-triangle entry per cell, each a single monomial; v_0 is the zero exponent
    assert sorted((i, j) for _, i, j in block.entries) == [
        (i, j) for i in range(3) for j in range(i, 3)]
    assert set(block.entries.values()) == {1.0}
    flat = {alpha for alpha, _, _ in block.entries}
    assert flat == {(0, 0), (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)}
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


def test_sparse_sos_moment_blocks():
    box = Box.unit(1)
    policy = ModelPolicy()

    def model(basis, shift=None):
        return model_for_pattern(sos_block_pattern(basis, shift), box, policy)

    m = model([(1,), (0,)])
    (block,) = m.lmis
    assert block.size == 2
    assert block.basis == ((0,), (1,))  # the basis is sorted
    # TSSOS-partition blocks {{0,2},{1}} of B={0,1,2}
    assert model([(0,), (2,)]).lmis[0].size == 2
    m = model([(1,)])
    assert not m.lmis and rows_as_sets(m) == [{(2,): 1.0}]  # the 1x1 block [v2] as a row
    # univariate shifted blocks: entries v_{i+a+b}
    m = model([(0,), (1,)], shift=(3,))
    (block,) = m.lmis
    assert block.entries == {((3,), 0, 0): 1.0, ((4,), 0, 1): 1.0, ((5,), 1, 1): 1.0}
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
    def cell(block, i, j):
        return {alpha: c for (alpha, a, b), c in block.entries.items() if (a, b) == (i, j)}

    box = Box([-1, 1], [1, 2])
    base = build_lasserre_model(np.array([[1], [0]]), 2, box)
    m = build_shifted_model((0, 1), base, box)
    mom = m.lmis[0]
    assert cell(mom, 0, 0) == {(0, 1): 1.0}
    assert cell(mom, 2, 2) == {(4, 1): 1.0}
    loc = m.lmis[1]
    assert cell(loc, 0, 0) == {(0, 1): 1.0, (2, 1): -1.0}
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


def test_shifted_model_rejects_pieces_gmcs_and_auxiliaries():
    # only rows and moment blocks are shifted; a vertex mixture (piece and
    # auxiliaries) or a circuit (piece and GMC record) is not a valid base
    box = Box([0, 0, 1], [1, 1, 2])
    square = Pattern(frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}),
                     kind="multilinear")
    circuit = make_sdsos((1, 0, 0), (0, 1, 0))
    for base in (build_multilinear_model(square, box), build_circuit_model(circuit, box)):
        with pytest.raises(BuilderError, match="can be shifted"):
            build_shifted_model((0, 0, 1), base, box)


def test_sos_block_shift_must_be_nonnegative_on_the_box():
    # x^1 * M(y) >= 0 is not valid where x < 0: with the shifted blocks of
    # {0, 3, 5} on [-1, 1], min x^5 + x^3 + 0.1 = -1.9 would get the bound 0.1
    f = Polynomial(1, {(5,): 1.0, (3,): 1.0, (0,): 0.1})
    fam = family_for_method("univariate-sparse", f)
    with pytest.raises(BuilderError, match="negative on the box"):
        assemble_relaxation(f, fam, Box([-1], [1]))
    for box in (Box([0], [5.0]), Box.nonneg_orthant(1)):
        assert len(assemble_relaxation(f, fam, box).blocks) == len(fam)


def test_circuit_model_even_odd():
    pat = make_sdsos((1, 0), (0, 0))  # beta = (1,0), gammas (2,0),(0,0)
    m = build_circuit_model(pat, Box.full_space(2))
    assert m.gmcs[0].sign_mode == "odd"
    pat = make_sdsos((1, 0), (0, 1))
    m = build_circuit_model(pat, Box.full_space(2))
    assert m.gmcs[0].sign_mode == "odd"
    m = build_circuit_model(pat, Box.nonneg_orthant(2))
    assert m.gmcs[0].sign_mode == "even"
    even = make_sdsos((2, 0), (0, 2))  # beta (2,2) even
    m = build_circuit_model(even, Box.full_space(2))
    assert m.gmcs[0].sign_mode == "even"


def test_circuit_model_requires_even_gammas_on_full_space():
    pat = Pattern(frozenset({(1, 0), (0, 1), (1, 1)}), kind="circuit",
                  meta={"beta": (1, 1),
                        "gammas": ((2, 0), (0, 2)),
                        "lambdas": (0.5, 0.5)})
    odd = Pattern(frozenset({(1,), (2,), (3,)}), kind="circuit",
                  meta={"beta": (2,), "gammas": ((1,), (3,)),
                        "lambdas": (0.5, 0.5)})
    build_circuit_model(odd, Box.nonneg_orthant(1))
    with pytest.raises(BuilderError):
        build_circuit_model(odd, Box.full_space(1))


# ---------------------------------------------------------------------------
# lifted-point feasibility: monomial lifts satisfy every generated model


def _lifted_program(patterns, box, policy=None):
    """The patterns' models assembled with a zero objective."""
    return assemble_relaxation(Polynomial.zero(box.n), PatternFamily(patterns), box, policy)


def _check_lift(patterns, box, policy=None, samples=200, seed=0, tol=1e-9):
    prog = _lifted_program(patterns, box, policy)
    rng = np.random.default_rng(seed)
    X = box.sample(rng, samples)
    worst = max(prog.max_violation(prog.lift_point(x)) for x in X)
    assert worst <= tol, f"lift violation {worst}"


FAMILY_CASES = [
    (multilinear_family, {(2, 1), (1, 3)}, Box([-1, -0.5], [1, 2])),
    (chain_family, {(2, 2), (3, 1)}, Box([-1, 0], [1.5, 1])),
    (shifted_chain_family, {(2, 3), (1, 1)}, Box.unit(2)),
    (h_family, {(2, 2), (0, 3)}, Box.unit(2)),
    (truncated_submonoid_family, {(3, 1), (0, 4)}, Box.unit(2)),
    # a point range (l_i = u_i): the vertex lift splits its weight evenly
    (multilinear_family, {(2, 1), (1, 3)}, Box([-1, 0.5], [1, 0.5])),
]


@pytest.mark.parametrize("builder,A,box", FAMILY_CASES)
def test_lifted_points_feasible_per_family(builder, A, box):
    _check_lift(builder(A).patterns, box)


def test_lifted_points_feasible_tree_and_univariate():
    f = Polynomial(3, {(1, 1, 4): 1.0, (2, 0, 1): -2.0})
    _check_lift(expression_tree_family(f).patterns, Box.unit(3))
    _check_lift(univariate_sparse_family({0, 2, 6}).patterns, Box([0], [5.0]))


def test_lifted_points_feasible_circuits():
    rng = np.random.default_rng(4)
    box = Box.full_space(2)
    prog = _lifted_program([make_sdsos((2, 0), (0, 2))], box)
    for _ in range(200):
        x = rng.uniform(-10, 10, 2)
        assert prog.max_violation(prog.lift_point(x)) <= 1e-9 * max(1.0, np.max(np.abs(x)) ** 8)
    prog = _lifted_program([make_sdsos((1, 0), (0, 1))], box)
    for _ in range(200):
        x = rng.uniform(-3, 3, 2)
        assert prog.max_violation(prog.lift_point(x)) <= 1e-9


# the fallbacks of a pattern with no recognised structure, and a submonoid
# pattern whose base is not a simplex: (patterns, box, objective terms, a
# check that the route's builder ran)
GENERIC_ROUTES = {
    "multilinear-cube": (
        [Pattern(frozenset({(0, 0), (2, 0), (0, 1), (2, 1)}), kind="generic")],
        Box([-1, -1], [1, 2]), {(2, 1): 1.0, (2, 0): -0.5, (0, 1): 0.2},
        lambda m: m.piece.kind == "vertex"),
    "unit-column-lasserre": (
        [Pattern(frozenset({(0, 0), (1, 1), (2, 1), (0, 2)}), kind="generic")],
        Box([-1, -1], [1, 2]), {(2, 1): 1.0, (1, 1): -0.5, (0, 2): 0.2},
        lambda m: m.lmis[0].basis == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))),
    "bounds-only": (
        [Pattern(frozenset({(0, 0, 0, 0), (4, 4, 3, 2), (1, 0, 0, 2)}), kind="generic")],
        Box([-1, 0, -1, 0], [1, 1, 1, 2]), {(4, 4, 3, 2): 1.0, (1, 0, 0, 2): -0.5},
        lambda m: not m.lmis and all(len(r.factors) == 1 for r in m.rows)),
    "submonoid-without-d": (
        [gamma_image([[1, 0], [1, 1]], [(0, 0), (1, 0), (0, 1), (1, 1)])],
        Box([-1, -1], [1, 2]), {(1, 1): 1.0, (0, 1): -0.5, (1, 2): 0.3},
        lambda m: len(m.lmis) == 3),
}


@pytest.mark.parametrize("route", sorted(GENERIC_ROUTES))
def test_generic_routes_are_feasible_and_sound(route):
    patterns, box, terms, took_route = GENERIC_ROUTES[route]
    assert all(took_route(model_for_pattern(p, box, ModelPolicy())) for p in patterns)
    _check_lift(patterns, box)
    f = Polynomial(box.n, terms)
    rel = solve_relaxation(f, PatternFamily(patterns), box)
    assert rel.result.status == "optimal"
    assert rel.bound - brute_force_min(f, box).value <= 1e-6
    cert, report = rel.certify()
    assert report.passed, report.problems


@pytest.mark.parametrize("policy,k,expected", [
    ({}, 1, "vertex"), ({}, 2, "vertex"), ({}, 6, "vertex"), ({}, 7, "pairwise"),
    ({"vertex_cap": 1}, 1, "vertex"), ({"vertex_cap": 1}, 2, "mccormick"),
    ({"vertex_cap": 1}, 3, "pairwise"),
    ({"vertex_cap": 2}, 2, "vertex"), ({"vertex_cap": 2}, 3, "pairwise"),
    ({"vertex_cap": 0}, 1, "vertex"), ({"vertex_cap": 0}, 2, "mccormick"),
])
def test_multilinear_pattern_routing(monkeypatch, policy, k, expected):
    # vertex model for k = 1 or k <= vertex_cap; otherwise McCormick for
    # k = 2 and pairwise McCormick for k >= 3
    for name, builder in (("build_multilinear_model", "vertex"),
                          ("build_mccormick_model", "mccormick"),
                          ("_pairwise_mccormick", "pairwise")):
        monkeypatch.setattr(models, name, lambda P, box, *_, builder=builder: builder)
    pat = multilinear_family({(1,) * k}).patterns[0]
    assert model_for_pattern(pat, Box.unit(k), ModelPolicy(**policy)) == expected


def test_pairwise_mccormick_fallback_for_wide_patterns():
    alpha = (1,) * 8
    fam = multilinear_family({alpha})
    model = model_for_pattern(fam.patterns[0], Box.unit(8), ModelPolicy(vertex_cap=6))
    assert model.aux_count == 0  # no 2^8 vertex mixture
    _check_lift(fam.patterns, Box.unit(8), ModelPolicy(vertex_cap=6), samples=100)


def test_merge_of_many_vertex_models_lifts_without_recursion():
    box = Box([-1.0, 0.5], [2.0, 3.0])
    pat = multilinear_family({(1, 1)}).patterns[0]
    fam = PatternFamily([pat] * 5000)
    prog = assemble_relaxation(Polynomial(2, {(1, 1): 1.0}), fam, box)
    # each model's four vertex weights take the columns after the previous model's
    assert [col for col, _ in prog.aux_lifts] == list(range(prog.ncols - 5000 * 4, prog.ncols, 4))
    assert sum(p.kind == "vertex" for p in prog.pieces) == 5000
    assert prog.max_violation(prog.lift_point(np.array([0.3, 1.7]))) <= 1e-9


def test_model_dump_mentions_all_constraint_kinds():
    pat = make_sdsos((1, 0), (0, 1))
    m = build_circuit_model(pat, Box.full_space(2))
    text = m.dump()
    assert "gmc" in text and "row" in text
    m2 = build_lasserre_model(np.array([[1]]), 1, Box.unit(1))
    assert "lmi" in m2.dump()


# ---------------------------------------------------------------------------
# vertex tables shared within one assembly: an oracle against the builder that
# made every table per pattern


@functools.cache
def _reference_nonnegative_rows(count: int) -> tuple:
    return tuple(models.Row({}, aux={j: 1.0}) for j in range(count))


def _reference_multilinear_model(P, box):
    """build_multilinear_model as it was before vertex tables were shared,
    its rows written in the current Row format."""
    base = models._pattern_base(P)
    if not all(set(col) <= {0, b} for col, b in zip(zip(*P.exponents), base)):
        raise BuilderError("pattern is not contained in its multilinear cube")
    supp, ranges = models._coordinate_ranges(base, box)
    k = len(supp)
    if k > models.VERTEX_HARD_CAP:
        raise PatternTooWide(
            f"multilinear pattern touches {k} coordinates (cap {models.VERTEX_HARD_CAP})")
    model = models.MomentModel(P.n)
    vertices = list(itertools.product(*ranges))
    count = model.aux_count = len(vertices)
    rows = model.rows
    rows.append(models.Row({(0,) * P.n: -1.0}, "==", aux=dict.fromkeys(range(count), 1.0)))
    columns = dict(zip(supp, zip(*vertices)))  # coordinate -> its value at every vertex
    negated = {i: tuple(map(operator.neg, col)) for i, col in columns.items()}
    pat_exps = sorted(P.exponents)
    for beta in pat_exps:
        if not any(beta):
            continue
        first, *rest = exp_support(beta)
        values = negated[first]
        for i in rest:
            values = list(map(operator.mul, values, columns[i]))
        aux = {j: v for j, v in enumerate(values) if abs(v) > COEFF_DROP_TOL}
        rows.append(models.Row({beta: 1.0}, "==", aux=aux))
    model.variables.update(pat_exps)
    model.variables.discard(tuple([0] * P.n))
    rows += _reference_nonnegative_rows(count)
    model.piece = Piece(
        "vertex",
        {
            "base_alpha": base,
            "support": tuple(supp),
            "vertices": tuple(vertices),
            "pattern": tuple(pat_exps),
        },
    )

    def lift(x, supp=supp, ranges=ranges, base=base, vertices=vertices):
        weights = []
        for i, (lo, hi) in zip(supp, ranges):
            y = float(x[i]) ** base[i]
            weights.append(((hi - y) / (hi - lo), (y - lo) / (hi - lo))
                           if hi > lo else (0.5, 0.5))
        vals = []
        for p in vertices:
            lam = 1.0
            for v, (_, hi), (w_lo, w_hi) in zip(p, ranges, weights):
                lam *= w_hi if v == hi else w_lo
            vals.append(lam)
        return vals

    model.aux_lift = lift
    return model


def _bits(v):
    """v with each float as its bytes and each dict as its item list, so that
    -0.0 differs from 0.0, 1 from 1.0 and dicts in another key order differ."""
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, dict):
        return [(_bits(k), _bits(x)) for k, x in v.items()]
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    return v


def _model_bits(model, points):
    rows = [(r.sense, r.factors, _bits(r.coeffs), _bits(r.aux)) for r in model.rows]
    return (rows, model.aux_count, sorted(model.variables), model.piece.kind,
            _bits(model.piece.payload), [_bits(model.aux_lift(x)) for x in points])


def _oracle_box(n, rng, uniform):
    """Coordinates drawn from a few intervals, so that supports of equal
    ranges recur: a signed zero end, a point range and a negative lower
    bound; a uniform box has one interval, [-a, c], on every coordinate."""
    a, b, c = sorted(rng.uniform(0.25, 2.0, size=3))
    pool = [(-a, c)] if uniform else [(-0.0, b), (-c, -0.0), (a - 1.0, a - 1.0), (-a, c), (a, b)]
    picks = rng.integers(len(pool), size=n)
    return Box([pool[p][0] for p in picks], [pool[p][1] for p in picks])


def _oracle_patterns(n, rng, count):
    """Multilinear patterns of 1 to 5 coordinates, each with one of 8 and up:
    half of them the full cube of x_S, the others a random part of a cube
    with random exponents."""
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 6))
        supp = {int(rng.integers(8, n))} | {int(i) for i in rng.choice(n, k - 1, replace=False)}
        full = rng.random() < 0.5
        base = tuple((1 if full else int(rng.integers(1, 4))) if i in supp else 0
                     for i in range(n))
        cube = [tuple(b if i in sub else 0 for i, b in enumerate(base))
                for r in range(len(supp) + 1) for sub in itertools.combinations(sorted(supp), r)]
        keep = rng.random(len(cube)) < (1.0 if full else 0.7)
        exps = {e for e, kept in zip(cube, keep) if kept} | {base}
        out.append(Pattern(frozenset(exps), kind="multilinear", meta={"base_alpha": base}))
    return out


@pytest.mark.parametrize("n", [9, 10, 12])
def test_shared_vertex_tables_build_the_reference_models_bit_for_bit(n):
    rng = np.random.default_rng(n)
    out_of_order = shared = 0
    for uniform in (False, False, False, True):
        box = _oracle_box(n, rng, uniform)
        patterns = _oracle_patterns(n, rng, 40)
        points = box.sample(rng, 3)
        tables = {}
        for P in patterns:
            want = _model_bits(_reference_multilinear_model(P, box), points)
            assert _model_bits(models.build_multilinear_model(P, box, tables), points) == want
            assert _model_bits(models.build_multilinear_model(P, box), points) == want
            out_of_order += any(list(exp_support(a)) != sorted(exp_support(a))
                                for a in P.exponents if sum(a) > 2)
        shared += len(patterns) - len(tables)
    # the inputs reach the cases a unit box hides: products taken out of
    # ascending coordinate order, and tables shared between patterns
    assert out_of_order and shared


def test_assembly_shares_vertex_tables_only_while_it_runs(monkeypatch):
    box = Box.unit(3)
    pats = multilinear_family({(1, 1, 0), (0, 1, 1), (1, 0, 1)}).patterns
    built = []

    def spy(P, box, tables=None):
        built.append(tables)
        return _reference_multilinear_model(P, box)

    monkeypatch.setattr(models, "build_multilinear_model", spy)
    assemble_relaxation(Polynomial(3, {(1, 1, 0): 1.0}), PatternFamily(pats), box)
    model_for_pattern(pats[0], box, ModelPolicy())
    # one dict for every model of the assembly, none for a model built on its own
    assert isinstance(built[0], dict) and all(t is built[0] for t in built[:-1])
    assert built[-1] is None
    assert models._vertex_tables.get() is None
