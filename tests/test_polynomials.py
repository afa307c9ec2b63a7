import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternrelax import models
from patternrelax.assemble import assemble_relaxation
from patternrelax.patterns import Pattern, chain_family
from patternrelax.polynomials import (
    Box,
    Interval,
    Polynomial,
    exp_add,
    minkowski_sum,
    monomial_range,
    power_range,
    product_of_factors,
)


def test_linearize_product_example():
    # a McCormick row is the product of its factors with each x^alpha read as
    # v_alpha, the zero exponent standing for v_0 = 1: on the unit square
    # (1-x1)(1-x2) -> 1 - v10 - v01 + v11, and a zero constant writes no v_0
    square = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
    for box in (Box.unit(2), Box([-1.0, 0.5], [2.0, 3.0])):
        for row in models.build_mccormick_model(square, box).rows:
            assert row.coeffs == product_of_factors(row.factors, box, 2).terms
    rows = models.build_mccormick_model(square, Box.unit(2)).rows
    assert rows[0].coeffs == {(1, 1): 1.0}
    assert rows[3].coeffs == {(1, 1): 1.0, (1, 0): -1.0, (0, 1): -1.0, (0, 0): 1.0}


def test_linearize_conic_keeps_v0():
    # the conic program keeps the objective's constant as v_0's cost
    f = Polynomial(1, {(0,): 5.0, (1,): 2.0})
    prog = assemble_relaxation(f, chain_family({(1,)}), Box.unit(1))
    assert prog.c[prog.col_exponents.index((0,))] == 5.0
    assert prog.c[prog.col_exponents.index((1,))] == 2.0


def test_monomial_range_examples():
    assert monomial_range((1, 2), Box([-1, 1], [2, 2])) == Interval(-4.0, 8.0)
    assert monomial_range((0, 0), Box([-5, 3], [9, 4])) == Interval(1.0, 1.0)
    assert monomial_range((2, 0), Box([-1, -2], [1, 2])) == Interval(0.0, 1.0)


def test_monomial_range_degenerate_and_infinite():
    assert monomial_range((3,), Box([2], [2])) == Interval(8.0, 8.0)
    r = monomial_range((2,), Box([0], [math.inf]))
    assert r.lo == 0.0 and math.isinf(r.hi)
    r = monomial_range((3,), Box([-math.inf], [math.inf]))
    assert math.isinf(r.lo) and math.isinf(r.hi)


def test_monomial_range_refuses_a_negative_exponent():
    # x**-1 by repeated squaring would never end
    with pytest.raises(ValueError, match="negative power"):
        monomial_range((-1,), Box.unit(1))


def test_monomial_range_sampling_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 1, n)
        hi = lo + rng.uniform(0, 2, n)
        box = Box(lo, hi)
        alpha = tuple(int(k) for k in rng.integers(0, 4, n))
        r = monomial_range(alpha, box)
        X = box.sample(rng, 1000)
        vals = np.prod(X ** np.array(alpha), axis=1)
        assert np.all(vals >= r.lo - 1e-12)
        assert np.all(vals <= r.hi + 1e-12)


def _four_end_products_range(alpha, box):
    # reference: the product of the per-coordinate ranges, each step taking
    # the min and max of all four end products (0 * inf = 0)
    def mul(a, b):
        return 0.0 if a == 0.0 or b == 0.0 else a * b

    lo = hi = 1.0
    for l, u, k in zip(box.lower, box.upper, alpha):
        if k:
            a, b = power_range(l, u, k)
            ends = (mul(lo, a), mul(lo, b), mul(hi, a), mul(hi, b))
            lo, hi = min(ends), max(ends)
    return lo, hi


def test_monomial_range_matches_four_end_products_bitwise():
    # signed zeros, underflow, overflow and infinite sides included; a zero
    # end must come out as +0.0, as the reference's rule 0 * x = 0 gives
    ends = [-math.inf, -3.0, -1.0, -1e-170, -0.0, 0.0, 1e-170, 1e-20, 0.5, 2.0, 1e100, math.inf]
    rng = np.random.default_rng(11)
    for _ in range(3000):
        n = int(rng.integers(1, 5))
        lower = [ends[int(t)] for t in rng.integers(0, len(ends), n)]
        upper = [max(l, ends[int(t)]) for l, t in zip(lower, rng.integers(0, len(ends), n))]
        box = Box(lower, upper)
        alpha = tuple(int(k) for k in rng.choice([0, 0, 1, 2, 3, 7], n))
        r = monomial_range(alpha, box)
        lo, hi = _four_end_products_range(alpha, box)
        assert (math.copysign(1.0, r.lo), r.lo, math.copysign(1.0, r.hi), r.hi) == (
            math.copysign(1.0, lo), lo, math.copysign(1.0, hi), hi), (alpha, box)


def test_evaluate_examples():
    f = Polynomial(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    assert f.evaluate([1.0, 1.0]) == 0.0
    assert Polynomial(2, {(1, 2): 1}).evaluate([2.0, 3.0]) == 18.0
    assert Polynomial(1, {(2,): 1, (1,): -1}).evaluate([0.5]) == -0.25


def test_minkowski_examples():
    assert minkowski_sum({(0,), (1,)}, {(0,), (1,)}) == {(0,), (1,), (2,)}
    A = {(2, 1), (0, 3)}
    assert minkowski_sum(A, {(0, 0)}) == frozenset(A)
    assert minkowski_sum({(1, 0), (0, 1)}, {(1, 0), (0, 1)}) == {
        (2, 0), (1, 1), (0, 2)}


exponents = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5
).map(frozenset)


@given(exponents, exponents, exponents)
@settings(max_examples=50, deadline=None)
def test_minkowski_commutative_associative(A, B, C):
    assert minkowski_sum(A, B) == minkowski_sum(B, A)
    assert minkowski_sum(minkowski_sum(A, B), C) == minkowski_sum(A, minkowski_sum(B, C))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_linearize_substitution_matches_evaluate(seed):
    # a 1x1 moment block [h x^(2b)] becomes a row; with v_alpha = x^alpha
    # and v_0 = 1 the row's value is h(x) x^(2b)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        alpha = tuple(int(k) for k in rng.integers(0, 4, n))
        terms[alpha] = float(rng.uniform(-2, 2))
    h = Polynomial(n, terms)
    b = tuple(int(k) for k in rng.integers(0, 3, n))
    model = models.MomentModel(n)
    models._moment_block(model, (b,), h, ())
    (row,) = model.rows
    x = rng.uniform(-1.5, 1.5, n)
    values = [c * Polynomial.monomial(a).evaluate(x) for a, c in row.coeffs.items()]
    direct = h.evaluate(x) * Polynomial.monomial(exp_add(b, b)).evaluate(x)
    assert abs(direct - sum(values)) <= 1e-12 * (1.0 + sum(map(abs, values)))


def test_normalization_drops_noise_coefficients():
    f = Polynomial(1, {(0,): 1e-20, (1,): 1.0})
    assert f.support() == {(1,)}


def test_polynomial_arithmetic_and_pow():
    x = Polynomial.variable(1, 0)
    f = (x - 1) * (x - 1)
    assert f.terms == {(2,): 1.0, (1,): -2.0, (0,): 1.0}
    assert (x ** 3).terms == {(3,): 1.0}


def test_polynomial_json_round_trip():
    f = Polynomial(2, {(1, 2): -0.5, (0, 0): 3.0})
    g = Polynomial.from_json_dict(f.to_json_dict())
    assert f == g
    with pytest.raises(ValueError, match="'n'"):
        Polynomial.from_json_dict({"terms": []})
    with pytest.raises(ValueError, match="'terms'"):
        Polynomial.from_json_dict({"n": 2})


def test_box_validation_and_json():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    b = Box([0, -1], [1, 2])
    assert Box.from_json_dict(b.to_json_dict()) == b
    with pytest.raises(ValueError, match="'u'"):
        Box.from_json_dict({"l": [0.0]})


@pytest.mark.parametrize("lower, upper", [([0.0, math.nan], [1.0, 1.0]),
                                          ([0.0, 0.0], [1.0, math.nan]),
                                          ([0.0, math.nan], [1.0, math.nan])])
def test_box_refuses_nan_bounds_naming_the_coordinate(lower, upper):
    # NaN compares false both ways, so only a check written as not l <= u sees it
    with pytest.raises(ValueError, match="box coordinate 1 requires l <= u"):
        Box(lower, upper)


def test_degenerate_box_is_legal():
    b = Box([0.5, 1.0], [0.5, 2.0])
    assert monomial_range((2, 1), b) == Interval(0.25, 0.5)
