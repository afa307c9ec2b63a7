import hashlib
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import STRUCTURED_SETS, brute_force_min, family_for_method, gen_instance
from patternrelax.io import export_instance_json, import_instance_json
from patternrelax.models import BuilderError, ModelPolicy, model_for_pattern
from patternrelax.patterns import (FAMILY_BUILDERS, PatternError, PatternFamily, PatternTooLarge,
                                   chain_family, make_sdsos, multilinear_family,
                                   submonoid_pattern, univariate_sparse_family)
from patternrelax.pipeline import solve_relaxation
from patternrelax.polynomials import Box, Polynomial, monomial_range
from patternrelax.program import ConicProgram, GMCData, export_sdpa, parse_sdpa


def value_of(f, fam, box, policy=None, sense="min"):
    rel = solve_relaxation(f, fam, box, sense, policy)
    assert rel.result.status == "optimal", rel.result.status
    return rel.bound


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
        v_vertex = value_of(f, fam, box, ModelPolicy())
        v_mcc = value_of(f, fam, box, ModelPolicy(vertex_cap=1))
        assert abs(v_vertex - v_mcc) <= 1e-7 * (1.0 + abs(v_vertex))


def test_gamma_consistency_with_transformed_box():
    # optimizing over the Gamma-image pattern equals optimizing the base
    # pattern over the transformed box when the columns are
    # variable-independent
    rng = np.random.default_rng(16)
    box = Box([0.0, -1.0], [1.0, 1.0])
    cols = [(2, 0), (0, 2)]  # x1^2 in [0,1], x2^2 in [0,1]
    ky = Box([monomial_range(c, box).lo for c in cols],
             [monomial_range(c, box).hi for c in cols])
    fam_img = PatternFamily([submonoid_pattern(cols, 2)], 2)
    fam_base = PatternFamily([submonoid_pattern([(1, 0), (0, 1)], 2)], 2)
    for _ in range(10):
        base_support = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        coeffs = [float(rng.uniform(-1, 1)) for _ in base_support]
        f_image = Polynomial(2, {
            (2 * a, 2 * b): c for (a, b), c in zip(base_support, coeffs)})
        f_base = Polynomial(2, {ab: c for ab, c in zip(base_support, coeffs)})
        r_img = solve_relaxation(f_image, fam_img, box).result
        r_base = solve_relaxation(f_base, fam_base, ky).result
        assert r_img.status == r_base.status == "optimal"
        assert abs(r_img.primal - r_base.primal) <= 1e-6 * (1 + abs(r_base.primal))


def test_support_augmentation_warns_and_bounds():
    f = Polynomial(2, {(4, 0): 1.0, (1, 1): 1.0})
    fam = multilinear_family({(1, 1)})  # does not cover (4,0)
    with pytest.warns(UserWarning, match="not covered"):
        r = solve_relaxation(f, fam, Box.unit(2)).result
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
    policy = ModelPolicy(vertex_cap=1)
    prog = assemble_relaxation(f, fam, Box.unit(2), policy)
    keys = set()
    for row in prog.ineqs:
        key = tuple(sorted((j, round(c, 12)) for j, c in row.coeff.items()))
        assert key not in keys
        keys.add(key)


@pytest.mark.parametrize("tag,method", [("S(3,6)", "S"), ("S(3,6)", "H")])
def test_every_piece_owns_a_constraint(tag, method):
    # a row dropped as a duplicate must not leave a certificate piece behind
    inst = gen_instance(tag, 1)
    prog = assemble_relaxation(inst.f, family_for_method(method, inst.f), inst.box)
    owned = ({r.piece for r in prog.ineqs + prog.eqs} | {b.piece for b in prog.blocks}
             | {g.piece for g in prog.gmcs})
    assert owned - {None} == set(range(len(prog.pieces)))


def test_v0_pinned_and_homogeneous_rows():
    f = Polynomial(1, {(2,): 1.0, (1,): -1.0})
    prog = assemble_relaxation(f, chain_family({(2,)}), Box.unit(1))
    assert prog.eqs[0].coeff == {prog.col_exponents.index((0,)): 1.0}
    assert prog.eqs[0].rhs == 1.0
    for row in prog.ineqs:
        assert row.rhs == 0.0


S36 = gen_instance("S(3,6)", 1)


@pytest.mark.parametrize("f,fam,box", [
    (S36.f, family_for_method("S", S36.f), S36.box),
    (Polynomial(1, {(6,): 1.0, (2,): -2.0, (0,): 0.5}), univariate_sparse_family({0, 2, 6}),
     Box([0], [3])),
], ids=["shifted-chain", "univariate"])
def test_blocks_are_model_blocks_with_exponents_renamed(f, fam, box):
    # assembly hands each model block over unchanged but for exponent -> column
    prog = assemble_relaxation(f, fam, box)
    col_of = {alpha: j for j, alpha in enumerate(prog.col_exponents) if alpha is not None}
    renamed = []
    for pat in fam:
        for block in model_for_pattern(pat, box, ModelPolicy()).lmis:
            entries = {(col_of[a], i, j): c for (a, i, j), c in block.entries.items()}
            if (block.size, entries) not in renamed:  # a repeated block is dropped
                renamed.append((block.size, entries))
    assert renamed
    assert [(b.size, b.entries) for b in prog.blocks] == renamed


# SHA-256 of the SDPA text of assembled programs, recorded when models were
# still merged pairwise (the S(3,6) entry: when rows dropped as duplicates
# still created pieces; the dense(3,4)/T entry and PINNED_FAMILY_SDPA: when
# each moment-matrix entry applied Gamma again); assembly must emit the same
# rows, blocks and aux columns in the same order.
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
    # H cubes on 7 coordinates, above the default vertex cap: pairwise McCormick
    ("dense(7,2)", 1, "H", None,
     "92d5ff17debf358b0ef3583ec65ad813653619a3261979fcd5eea857c86b1082"),
    # shifted chains, whose bound rows on the shift monomial were emitted twice
    ("S(3,6)", 1, "S", None,
     "075d532d6bdfc9a2186a7aac64a5201a146eb6c6b3ada80ce66d4f008acda75e"),
    # one 35x35 moment block, above the solver's DENSE_BLOCK_MAX
    ("dense(3,8)", 1, "tssos-sos", None,
     "d2dec1e9ffbe85a9959b7af46d555b824f20d4c66cf0f0c61c8521c0d83598f9"),
    # images of two-column Gammas, with localizers
    ("dense(3,4)", 1, "T", None,
     "297a6406a30a8a83bde06c0693bf253713a7a0da56c21d20de7021e83f9a8c51"),
    # the first relax-d64 job: 126 vertex models with up to 16 auxiliaries
    ("dense(6,4)", 1, "M", None,
     "0f28a3f2558f633f41c1eb4987c86dbc778db548c653b602fd4b6c7d82b3c686"),
    # the first lp-a6 job: vertex models of the cubes of (k, k, k, k)
    ("A6", 1, "M", None,
     "60cc88dfa616eac45cf0f555ff1d73192ba0bb023cfe4b80e12ed35c3f84a4b0"),
]

# the same for hand-made families: (objective, family, box, digest)
PINNED_FAMILY_SDPA = [
    # shifted SOS moment blocks x^i * M(y)
    (Polynomial(1, {(6,): 1.0, (2,): -2.0, (0,): 0.5}), univariate_sparse_family({0, 2, 6}),
     Box([0], [3]), "08ce9d50d6e3f767dfc2de72a1a248efe9dd8fcd16f6fbdad1bbbf742ed049a8"),
    # a GMC record that belongs to its model's circuit piece
    (Polynomial(2, {(2, 0): 1.0, (1, 1): -1.5, (0, 2): 1.0}),
     PatternFamily([make_sdsos((1, 0), (0, 1))]), Box.full_space(2),
     "f4eb5f0070a574cad31fe3ccb93b81759b85f3913b608e4ce08f5f335671914f"),
]

# the same for lowered geometric-mean cones: towers of 2x2 blocks
PINNED_GMC_SDPA = [
    ((0.25, 0.25, 0.5), "f4da4b9cb3a836ea1603f7b24671f1cfb7416f0d55ab9bd2c34ced9c19aed5d8"),
]


def assert_pinned_and_reparsed(text, digest):
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the parser reads back exactly the program that was written
    assert export_sdpa(parse_sdpa(text)) == text


@pytest.mark.parametrize("tag,seed,method,policy,digest", PINNED_SDPA)
def test_assembled_sdpa_is_pinned(tag, seed, method, policy, digest):
    inst = gen_instance(tag, seed)
    prog = assemble_relaxation(inst.f, family_for_method(method, inst.f), inst.box, policy)
    assert_pinned_and_reparsed(export_sdpa(prog.lowered()), digest)


@pytest.mark.parametrize("f,fam,box,digest", PINNED_FAMILY_SDPA, ids=["univariate", "sdsos"])
def test_family_sdpa_is_pinned(f, fam, box, digest):
    assert_pinned_and_reparsed(export_sdpa(assemble_relaxation(f, fam, box).lowered()), digest)


@pytest.mark.parametrize("lambdas,digest", PINNED_GMC_SDPA)
def test_gmc_tower_sdpa_is_pinned(lambdas, digest):
    # columns [y, t_0, ..., t_k] with the one record 0 <= y <= prod t_i^lambda_i
    k = len(lambdas)
    prog = ConicProgram(1 + k)
    prog.gmcs.append(GMCData(0, tuple(range(1, k + 1)), tuple(lambdas), "even"))
    assert_pinned_and_reparsed(export_sdpa(prog.lowered()), digest)


REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("workload", ["lp-a6", "chain-c26", "relax-d64"])
def test_benchmark_programs_match_their_recorded_digests(workload):
    # every job recorded for a benchmark workload, run as its relax path
    # (instance JSON round trip, family, assemble with the default policy,
    # lower, SDPA export), gives the SDPA text whose SHA-256 the benchmark's
    # gate compares; a change to one of these programs fails here first
    rec = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    changed = []
    for key, job in rec["jobs"].items():
        inst_id, sense = key.split(":")
        inst = gen_instance(rec["tag"], int(inst_id.split("#")[1]))
        f, box, _, _ = import_instance_json(export_instance_json(inst.f, inst.box))
        prog = assemble_relaxation(f, family_for_method(rec["method"], f), box, ModelPolicy(),
                                   sense)
        text = export_sdpa(prog.lowered())
        if hashlib.sha256(text.encode()).hexdigest() != job["sdpa_sha256"]:
            changed.append(key)
    assert len(rec["jobs"]) >= 80
    assert changed == []


SWEEP_TAGS = sorted(STRUCTURED_SETS) + ["dense(2,6)", "dense(3,4)", "S(3,6)"]


def test_every_named_instance_builds_or_refuses():
    # seed 1 of each tag under every method: the program assembles, or the
    # family or a model refuses with its own error, and none of them hangs
    start = time.perf_counter()
    refused = {}
    for tag in SWEEP_TAGS:
        inst = gen_instance(tag, 1)
        for method in FAMILY_BUILDERS:
            try:
                fam = family_for_method(method, inst.f)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # uncovered exponents
                    prog = assemble_relaxation(inst.f, fam, inst.box)
            except (PatternError, BuilderError) as exc:
                refused[tag, method] = type(exc)
            else:
                assert prog.ncols > 0 and (prog.eqs or prog.ineqs or prog.blocks)
    assert time.perf_counter() - start < 30.0
    # every tag is multivariate; A6 and A8 have degree 40 in 4 variables
    assert refused == {
        **{(tag, "univariate-sparse"): PatternError for tag in SWEEP_TAGS},
        **{(tag, m): PatternTooLarge for tag in ("A6", "A8") for m in ("T", "tssos-sos")},
    }


@pytest.mark.parametrize("tag", ["A6", "A8"])
def test_tssos_basis_above_the_cap_is_refused_at_once(tag):
    # the half-degree basis has 10626 exponents; without the cap check, the
    # partition's pair loop over it ran for more than 15 s
    f = gen_instance(tag, 1).f
    start = time.perf_counter()
    with pytest.raises(PatternTooLarge, match="10626"):
        family_for_method("tssos-sos", f)
    assert time.perf_counter() - start < 1.0
