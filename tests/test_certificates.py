import math

import numpy as np
import pytest

from patternrelax.bench import brute_force_min
from patternrelax.certificates import (
    Certificate,
    CertificateError,
    CertificatePiece,
    extract_certificate,
    verify_certificate,
)
from patternrelax.pipeline import solve_relaxation
from patternrelax.patterns import (
    PatternFamily,
    chain_family,
    make_circuit,
    make_sdsos,
    multilinear_family,
)
from patternrelax.polynomials import Box, Polynomial


def _sos_certificate(lam, blocks):
    """A certificate of f - lam as a sum of Gram forms (basis, Q)."""
    return Certificate(lam, "sos", [CertificatePiece("sos", {"basis": tuple(basis), "gram": Q})
                                    for basis, Q in blocks])


def _handelman_certificate(lam, products):
    """A certificate of f - lam as a sum of weight * prod(factors)."""
    return Certificate(lam, "handelman",
                       [CertificatePiece("linear", {"factors": factors, "weight": c})
                        for factors, c in products])


def _circuit_certificate(f, pat):
    """f itself as one circuit piece of the pattern, a certificate of f - 0."""
    data = {k: pat.meta[k] for k in ("beta", "gammas", "lambdas")}
    return Certificate(0.0, "circuit", [CertificatePiece(
        "circuit", {**data, "poly": dict(f.terms)})])


def test_verify_sos_examples():
    f = Polynomial(1, {(2,): 1.0, (0,): 1.0})
    basis = [(0,), (1,)]
    box = Box.full_space(1)
    ok = verify_certificate(_sos_certificate(1.0, [(basis, np.array([[0.0, 0.0], [0.0, 1.0]]))]),
                            f, box)
    assert ok.passed
    bad_eig = verify_certificate(
        _sos_certificate(1.0, [(basis, np.array([[-1.0, 0.0], [0.0, 1.0]]))]), f, box)
    assert not bad_eig.passed
    bad_coeff = verify_certificate(
        _sos_certificate(0.0, [(basis, np.array([[0.0, 0.0], [0.0, 1.0]]))]), f, box)
    assert not bad_coeff.passed
    assert any("residual" in p for p in bad_coeff.problems)


def test_verify_sos_depends_only_on_gram():
    # x^2 + 2x + 1 = (x+1)^2: Gram [[1,1],[1,1]] on basis {1, x}
    f = Polynomial(1, {(2,): 1.0, (1,): 2.0, (0,): 1.0})
    basis = [(0,), (1,)]
    box = Box.full_space(1)
    Q = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert verify_certificate(_sos_certificate(0.0, [(basis, Q)]), f, box).passed
    # conjugating by a non-trivial orthogonal matrix changes the polynomial
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert not verify_certificate(_sos_certificate(0.0, [(basis, R.T @ Q @ R)]), f, box).passed
    # a different square decomposition of the same Gram matrix still passes
    eigs, vecs = np.linalg.eigh(Q)
    rebuilt = vecs @ np.diag(eigs) @ vecs.T
    assert verify_certificate(_sos_certificate(0.0, [(basis, rebuilt)]), f, box).passed


def test_verify_handelman_examples():
    # the factors x and 1 - x of the unit interval
    x = Polynomial.variable(1, 0)
    box = Box.unit(1)
    lo = (("mon_minus_lo", (1,)),)
    assert verify_certificate(_handelman_certificate(0.0, [(lo, 1.0)]), x, box).passed
    assert not verify_certificate(_handelman_certificate(0.5, [(lo, 1.0)]), x, box).passed
    rep = verify_certificate(_handelman_certificate(0.0, [(lo, -1.0)]), x, box)
    assert not rep.passed
    assert rep.problems[0].startswith("piece 0 (linear): negative multiplier")


def test_verify_handelman_bilinear_product():
    # x1 * x2 as the product of the unit square's facets x1 >= 0 and x2 >= 0
    f = Polynomial(2, {(1, 1): 1.0})
    factors = (("mon_minus_lo", (1, 0)), ("mon_minus_lo", (0, 1)))
    assert verify_certificate(_handelman_certificate(0.0, [(factors, 1.0)]), f, Box.unit(2)).passed


def test_verify_circuit_examples():
    pat = make_circuit((2,), [(0,), (4,)])
    box = Box.full_space(1)
    f = Polynomial(1, {(4,): 1.0, (2,): -2.0, (0,): 1.0})
    assert verify_certificate(_circuit_certificate(f, pat), f, box).passed
    # slack exactly zero: the least decrease of the inner coefficient fails
    tight = Polynomial(1, {(4,): 1.0, (2,): -(2.0 + 1e-6), (0,): 1.0})
    rep = verify_certificate(_circuit_certificate(tight, pat), tight, box)
    assert not rep.passed and "circuit condition violated" in rep.problems[0]
    worse = Polynomial(1, {(4,): 1.0, (2,): -3.0, (0,): 1.0})
    assert not verify_certificate(_circuit_certificate(worse, pat), worse, box).passed
    positive = Polynomial(1, {(4,): 0.01, (2,): 5.0, (0,): 0.01})
    assert verify_certificate(_circuit_certificate(positive, pat), positive, box).passed


def test_verify_circuit_odd_case():
    pat = make_sdsos((1, 0), (0, 1))  # inner exponent (1,1), odd
    box = Box.full_space(2)
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0})
    assert verify_certificate(_circuit_certificate(f, pat), f, box).passed  # (x-y)^2
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 2.0})
    assert verify_certificate(_circuit_certificate(f, pat), f, box).passed  # odd: |2| <= 2
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.1})
    assert not verify_certificate(_circuit_certificate(f, pat), f, box).passed


# 1 + 3x + x^2 is -1.25 at x = -1.5; the AM-GM test with the inner term
# counted as even proves it only where x >= 0
_QUADRATIC = (Polynomial(1, {(0,): 1.0, (1,): 3.0, (2,): 1.0}), make_circuit((1,), [(0,), (2,)]))
# x + x^3 is -2 at x = -1: odd outer exponents prove nothing where x < 0
_ODD_OUTER = (Polynomial(1, {(1,): 1.0, (3,): 1.0}), make_circuit((2,), [(1,), (3,)]))


# x_1 (1 - 1.5 x_1 + x_1^2) >= 0 where x_1 >= 0, and -3.5 at x_1 = -1: the
# rule is read coordinate by coordinate, so x_2's sign does not matter
_ODD_IN_X1 = (Polynomial(2, {(1, 0): 1.0, (2, 0): -1.5, (3, 0): 1.0}),
              make_circuit((2, 0), [(1, 0), (3, 0)]))


@pytest.mark.parametrize("f, pat, box, passes", [
    (*_QUADRATIC, Box.full_space(1), False),
    (*_QUADRATIC, Box([-3.0], [3.0]), False),
    (*_QUADRATIC, Box.nonneg_orthant(1), True),
    (*_ODD_OUTER, Box([-1.0], [1.0]), False),
    (*_ODD_OUTER, Box.unit(1), True),
    (*_ODD_IN_X1, Box([0.0, -1.0], [1.0, 1.0]), True),
    (*_ODD_IN_X1, Box([-1.0, 0.0], [1.0, 1.0]), False),
], ids=["quadratic_full_space", "quadratic_on_pm3", "quadratic_orthant",
        "odd_outer_on_pm1", "odd_outer_on_unit", "odd_in_x1_where_x1_nonneg",
        "odd_in_x1_where_x1_negative"])
def test_circuit_sign_rule_comes_from_the_box(f, pat, box, passes):
    # the piece claims the nonnegative orthant; the verifier reads the box instead
    cert = _circuit_certificate(f, pat)
    cert.pieces[0].data["domain"] = "R_plus"
    assert verify_certificate(cert, f, box).passed == passes


def test_odd_circuit_certifies_where_only_its_coordinate_is_nonnegative():
    # the circuit involves x_1 alone, and x_1 >= 0 on the box although x_2 is not
    f, pat = _ODD_IN_X1
    rel = solve_relaxation(f, PatternFamily([pat], 2), Box([0.0, -1.0], [1.0, 1.0]))
    assert rel.result.status == "optimal"
    cert, report = rel.certify()
    assert cert.kind == "circuit" and report.passed, report.problems
    assert abs(rel.bound) <= 1e-6  # min f = 0 at x_1 = 0


@pytest.mark.parametrize("box", [
    Box.full_space(2), Box.nonneg_orthant(2), Box([-1.0, -1.0], [1.0, 1.0]),
    Box([0.0, 0.0], [2.0, 2.0])], ids=["full_space", "orthant", "pm1", "zero_to_two"])
def test_sdsos_circuit_certifies_on_any_box(box):
    f = Polynomial(2, {(2, 0): 1.0, (1, 1): -1.5, (0, 2): 1.0})
    rel = solve_relaxation(f, PatternFamily([make_sdsos((1, 0), (0, 1))], 2), box)
    assert rel.result.status == "optimal"
    cert, report = rel.certify()
    assert cert.kind == "circuit" and report.passed, report.problems
    if box.bounded:
        fmin = brute_force_min(f, box).value
        assert rel.bound <= fmin + 1e-6 * (1.0 + abs(fmin))


@pytest.mark.parametrize("factor, box, problem", [
    # 1 * x is f = x exactly, but the factor x is negative on [-1, 1]
    (("monomial", (1,)), Box([-1.0], [1.0]), "factor ('monomial', (1,)) is not nonnegative"),
    # a factor carrying a whole polynomial is no kind the verifier can check
    (("affine", Polynomial.variable(1, 0)), Box.unit(1), "unknown factor kind 'affine'"),
    (("poly", Polynomial.variable(1, 0)), Box.unit(1), "unknown factor kind 'poly'"),
], ids=["monomial_negative_on_box", "affine", "poly"])
def test_unprovable_factor_fails_naming_the_piece(factor, box, problem):
    x = Polynomial.variable(1, 0)
    rep = verify_certificate(_handelman_certificate(0.0, [((factor,), 1.0)]), x, box)
    assert not rep.passed
    assert rep.problems[0].startswith(f"piece 0 (linear): {problem}")


def test_vertex_table_must_list_every_box_vertex():
    # x - 1/2 is nonnegative at x = 1 only; min x on [0, 1] is 0, not 1/2
    f = Polynomial(1, {(1,): 1.0})
    piece = {"base_alpha": (1,), "support": (0,), "poly": {(1,): 1.0, (0,): -0.5}}
    partial = Certificate(0.5, "mixed",
                          [CertificatePiece("vertex", {**piece, "vertices": ((1.0,),)})])
    rep = verify_certificate(partial, f, Box.unit(1))
    assert not rep.passed and rep.problems[0].startswith("piece 0 (vertex)")
    full = Certificate(0.5, "mixed",
                       [CertificatePiece("vertex", {**piece, "vertices": ((0.0,), (1.0,))})])
    assert not verify_certificate(full, f, Box.unit(1)).passed


def test_vertex_piece_outside_its_cube_fails_naming_the_piece():
    # x^2 - x is 0 at both vertices of [0, 1] but -1/4 at x = 1/2: it is not
    # multilinear in y = x, so its vertex values prove nothing
    f = Polynomial(1, {(2,): 1.0, (1,): -1.0})
    piece = {"base_alpha": (1,), "support": (0,), "vertices": ((0.0,), (1.0,)),
             "poly": dict(f.terms)}
    rep = verify_certificate(Certificate(0.0, "mixed", [CertificatePiece("vertex", piece)]),
                             f, Box.unit(1))
    assert not rep.passed
    assert rep.problems[0] == "piece 0 (vertex): exponent (2,) lies outside the piece's cube"


def test_vertex_certificate_json_with_null_shift_passes():
    # vertex blocks written by older versions hold "shift": null
    f = Polynomial(2, {(1, 1): 1.0, (1, 0): -0.5})
    box = Box.unit(2)
    cert, rep = solve_relaxation(f, multilinear_family(f.support()), box).certify()
    assert rep.passed
    data = cert.to_json_dict()
    vertex_blocks = [blk for blk in data["blocks"] if blk["kind"] == "vertex"]
    assert vertex_blocks and all("shift" not in blk for blk in vertex_blocks)
    for blk in vertex_blocks:
        blk["shift"] = None
    assert verify_certificate(Certificate.from_json_dict(data), f, box).passed


def test_circuit_weights_must_be_barycentric():
    # x^4 - 2.05 x^2 + 1 dips below 0 near x^2 = 1.025; weights 1/e, 1/e
    # (not barycentric: they sum to 0.74) would pass the circuit test
    f = Polynomial(1, {(4,): 1.0, (2,): -2.05, (0,): 1.0})
    data = {"beta": (2,), "gammas": ((0,), (4,)), "poly": dict(f.terms)}
    for lambdas in [(math.exp(-1), math.exp(-1)), (0.5, 0.5)]:
        cert = Certificate(0.0, "circuit",
                           [CertificatePiece("circuit", {**data, "lambdas": lambdas})])
        assert not verify_certificate(cert, f, Box.full_space(1)).passed


def test_extract_requires_optimal_and_metadata():
    f = Polynomial(1, {(2,): 1.0, (1,): -1.0})
    fam = chain_family(f.support())
    rel = solve_relaxation(f, fam, Box.unit(1))
    import dataclasses

    bad = dataclasses.replace(rel.result, status="max_iter")
    with pytest.raises(CertificateError):
        extract_certificate(rel.program, bad)
    from patternrelax.program import ConicProgram

    with pytest.raises(CertificateError):
        extract_certificate(ConicProgram(1), rel.result)


def test_round_trip_mccormick_certificate():
    f = Polynomial(2, {(1, 1): 1.0})
    fam = multilinear_family(f.support())
    from patternrelax.models import ModelPolicy

    rel = solve_relaxation(f, fam, Box.unit(2), policy=ModelPolicy(vertex_cap=1))
    cert = extract_certificate(rel.program, rel.result)
    assert abs(cert.lam - rel.result.dual) <= 1e-8
    assert abs(cert.lam) <= 1e-7
    rep = verify_certificate(cert, f, Box.unit(2))
    assert rep.passed
    # LP duals may be degenerate; any verifying multiplier vector is accepted,
    # but all pieces here must be nonnegative product rows
    assert {p.kind for p in cert.pieces} == {"linear"}
    assert all(p.data["weight"] >= -1e-10 for p in cert.pieces)


def test_round_trip_sos_certificate_kind():
    f = Polynomial(1, {(2,): 1.0})
    fam = chain_family(f.support())
    rel = solve_relaxation(f, fam, Box([-1.0], [1.0]))
    cert = extract_certificate(rel.program, rel.result)
    rep = verify_certificate(cert, f, Box([-1.0], [1.0]))
    assert rep.passed
    assert abs(cert.lam) <= 1e-7  # min of x^2 on [-1,1]


def test_round_trip_circuit_certificate_and_json():
    f = Polynomial(1, {(4,): 1.0, (2,): -2.0, (0,): 1.0})
    fam = PatternFamily([make_circuit((2,), [(0,), (4,)])], 1)
    box = Box.full_space(1)
    rel = solve_relaxation(f, fam, box)
    cert = extract_certificate(rel.program, rel.result)
    assert cert.kind == "circuit"
    assert verify_certificate(cert, f, box).passed
    data = cert.to_json_dict()
    assert set(data) == {"lambda", "kind", "blocks"}
    again = Certificate.from_json_dict(data)
    assert verify_certificate(again, f, box).passed
    assert abs(again.lam - cert.lam) == 0.0
    # older certificates carry a provenance string in their meta block
    assert data["blocks"][0] == {"kind": "meta", "sense": "min"}
    data["blocks"][0]["provenance"] = ""
    assert verify_certificate(Certificate.from_json_dict(data), f, box).passed


def test_certificate_json_missing_field():
    with pytest.raises(CertificateError):
        Certificate.loads('{"kind": "sos", "blocks": []}')


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_lambda_that_is_not_finite_fails(lam):
    # 3 = 3 * (empty product) certifies lambda = 0; f - NaN has a NaN constant,
    # which Polynomial drops, so without the check of lambda every
    # coefficient of the sum would match
    f = Polynomial(1, {(0,): 3.0})
    assert verify_certificate(_handelman_certificate(0.0, [((), 3.0)]), f, Box.unit(1)).passed
    report = verify_certificate(_handelman_certificate(lam, [((), 3.0)]), f, Box.unit(1))
    assert not report.passed
    assert f"lambda {lam} is not finite" in report.problems


def test_tssos_block_certificate():
    # dense-enough objective: one Gram per partition block
    from patternrelax.bench import family_for_method

    f = Polynomial(2, {(4, 0): 2.0, (0, 4): 2.0, (2, 2): 1.0, (0, 0): 1.0})
    fam = family_for_method("tssos-sos", f)
    box = Box.full_space(2)
    rel = solve_relaxation(f, fam, box)
    assert rel.result.status == "optimal"
    cert = extract_certificate(rel.program, rel.result)
    grams = [p for p in cert.pieces if p.kind == "sos"]
    assert len(grams) >= 1
    assert verify_certificate(cert, f, box).passed


def test_soundness_spot_check_on_samples():
    rng = np.random.default_rng(8)
    f = Polynomial(2, {(1, 1): 1.0, (2, 0): -0.5, (0, 1): 0.25})
    fam = multilinear_family(f.support())
    box = Box.unit(2)
    rel = solve_relaxation(f, fam, box)
    cert = extract_certificate(rel.program, rel.result)
    assert verify_certificate(cert, f, box).passed
    for x in box.sample(rng, 500):
        assert f.evaluate(x) - cert.lam >= -1e-5


def test_verify_sums_pieces_without_rounding_partial_sums():
    # the x coefficients of the first two pieces cancel to below
    # COEFF_DROP_TOL, which a fold of Polynomial sums rounds to zero before
    # the third piece adds its own; one sum of all terms keeps it.  The
    # verdict is the fold's and the residual within 1e-14 of it
    from patternrelax.certificates import _PIECE_CHECKS
    from patternrelax.polynomials import COEFF_DROP_TOL

    basis = ((0,), (1,))
    grams = [np.array([[1.0, 0.5], [0.5, 1.0]]),
             np.array([[1.0, -0.5 + 4e-15], [-0.5 + 4e-15, 1.0]]),
             np.array([[1.0, 0.25], [0.25, 1.0]])]
    pieces = [CertificatePiece("sos", {"basis": basis, "gram": Q}) for Q in grams]
    box = Box.full_space(1)
    parts = [_PIECE_CHECKS["sos"](pc.data, 1, box) for pc in pieces]
    partial = parts[0] + parts[1]
    assert (1,) not in partial.terms
    assert 0.0 < abs(parts[0].terms[(1,)] + parts[1].terms[(1,)]) < COEFF_DROP_TOL
    f = Polynomial(1, {(0,): 3.5, (1,): 0.5, (2,): 3.0})
    for lam in (0.5, 0.0):
        cert = Certificate(lam, "sos", pieces)
        fold = Polynomial.zero(1)
        for part in parts:
            fold = fold + part
        target = f - lam
        old_residual = max(abs(fold.terms.get(k, 0.0) - target.terms.get(k, 0.0))
                           for k in set(fold.terms) | set(target.terms))
        new = verify_certificate(cert, f, box)
        assert new.passed == (old_residual <= 1e-6)
        assert abs(new.max_residual - old_residual) <= 1e-14
