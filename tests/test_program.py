import copy
import hashlib
import json
import math

import numpy as np
import pytest

from patternrelax.bench import family_for_method, gen_instance
from patternrelax.io import export_instance_json, import_instance_json
from patternrelax.patterns import (FAMILY_BUILDERS, PatternFamily, h_family, make_circuit,
                                 make_sdsos)
from patternrelax.polynomials import Box, Polynomial
from patternrelax.program import (
    ConicProgram,
    DenominatorCap,
    GMCData,
    _entry_order,
    export_sdpa,
    parse_sdpa,
    rationalize_weights,
)


def entries(coeff):
    """Block entries (col, i, j) -> v, i <= j, of {col: dense symmetric matrix}."""
    return {(col, i, j): float(M[i, j])
            for col, M in coeff.items() for i in range(len(M)) for j in range(i, len(M))}


def gmc_program(lambdas, sign_mode="even"):
    """Columns: [y, t_0, ..., t_k] with one GMC record."""
    k = len(lambdas)
    prog = ConicProgram(1 + k)
    prog.gmcs.append(GMCData(0, tuple(range(1, k + 1)), tuple(lambdas), sign_mode))
    return prog


def tower_feasible(prog, point, tol=1e-8):
    """Check the lowered tower at a point, maximizing over free auxiliaries."""
    lowered = prog.lowered()
    v = np.zeros(lowered.ncols)
    v[: len(point)] = point
    for col, kind, data in lowered.tower_lift:
        if kind == "geomean":
            v[col] = math.prod(max(v[g], 0.0) ** lam for g, lam in data)
        else:
            a, b = data
            v[col] = math.sqrt(max(v[a] * v[b], 0.0))
    return lowered.max_violation(v) <= tol


def test_gmc_half_half_gives_single_psd2():
    prog = gmc_program([0.5, 0.5]).lowered()
    assert len(prog.blocks) == 1 and prog.blocks[0].size == 2
    assert prog.ncols == 3  # no auxiliaries
    assert all(b.size == 2 for b in gmc_program([0.25, 0.25, 0.5]).lowered().blocks)


def test_lowering_leaves_the_source_program_unchanged():
    from patternrelax.assemble import assemble_relaxation
    from patternrelax.patterns import PatternFamily

    # an odd circuit record: lowering adds columns, rows, 2x2 blocks and lift steps
    f = Polynomial(2, {(1, 1): 1.0, (2, 0): 1.0, (0, 2): 1.0})
    prog = assemble_relaxation(f, PatternFamily([make_sdsos((1, 0), (0, 1))], 2),
                               Box.full_space(2))
    prog.add_block(2, {(1, 0, 0): 1.0, (2, 1, 1): 1.0, (3, 0, 1): 1.0})
    before = copy.deepcopy((prog.ncols, prog.eqs, prog.ineqs, prog.blocks, prog.pieces,
                            prog.tower_lift))
    lowered = prog.lowered()
    assert lowered.ncols > prog.ncols and len(lowered.blocks) > len(prog.blocks)
    assert lowered.tower_lift and len(lowered.ineqs) > len(prog.ineqs)
    assert (prog.ncols, prog.eqs, prog.ineqs, prog.blocks, prog.pieces,
            prog.tower_lift) == before


def test_gmc_quarter_three_quarters_structure():
    prog = gmc_program([0.25, 0.75]).lowered()
    assert len(prog.blocks) == 2
    assert prog.ncols == 4  # one auxiliary node


def test_gmc_single_factor_is_row():
    prog = gmc_program([1.0]).lowered()
    assert not prog.blocks
    # rows: y >= 0 and t0 - y >= 0
    assert len(prog.ineqs) == 2


def test_gmc_tower_membership_random():
    rng = np.random.default_rng(12)
    for lambdas in ([0.5, 0.5], [0.25, 0.75], [1 / 3, 1 / 3, 1 / 3],
                    [0.125, 0.375, 0.5], [2 / 3, 1 / 3]):
        prog = gmc_program(list(lambdas))
        for _ in range(100):
            t = rng.uniform(1e-3, 10.0, len(lambdas))
            bound = math.prod(ti ** li for ti, li in zip(t, lambdas))
            inside = [bound - 1e-4, 0.5 * bound, 0.0]
            outside = [bound + 1e-4, 1.5 * bound + 1e-6]
            for y in inside:
                assert tower_feasible(prog, [y, *t]), (lambdas, t, y)
            for y in outside:
                assert not tower_feasible(prog, [y, *t]), (lambdas, t, y)


def test_gmc_odd_mode_bounds_absolute_value():
    prog = gmc_program([0.5, 0.5], "odd")
    assert tower_feasible(prog, [-0.9, 1.0, 1.0])
    assert tower_feasible(prog, [0.9, 1.0, 1.0])
    assert not tower_feasible(prog, [-1.1, 1.0, 1.0])


def test_rationalize_weights():
    nums, D = rationalize_weights([0.5, 0.5], 1 << 16)
    assert (nums, D) == ([1, 1], 2)
    nums, D = rationalize_weights([1 / 3, 1 / 3, 1 / 3], 1 << 16)
    assert (nums, D) == ([1, 1, 1], 3)
    with pytest.raises(DenominatorCap):
        rationalize_weights([1 / 3 + 1e-7, 2 / 3 - 1e-7], 10)


def test_rationalize_cap_exceeded():
    with pytest.raises(DenominatorCap):
        rationalize_weights([1 / 65537, 65536 / 65537], 1 << 16)


# ---------------------------------------------------------------------------
# SDPA export / reparse


def lp_program():
    # min x0 s.t. x0 >= 1, x0 + x1 = 3, x1 >= 0
    prog = ConicProgram(2)
    prog.c[:] = [1.0, 0.0]
    prog.add_ineq({0: 1.0}, 1.0)
    prog.add_ineq({1: 1.0}, 0.0)
    prog.add_eq({0: 1.0, 1: 1.0}, 3.0)
    return prog


def sdp_program():
    # min v2 s.t. [[1, v1], [v1, v2]] >= 0 encoded homogeneously
    prog = ConicProgram(2)
    prog.c[:] = [0.0, 1.0]
    prog.add_block(
        2,
        entries({0: np.array([[0.0, 1.0], [1.0, 0.0]]), 1: np.array([[0.0, 0.0], [0.0, 1.0]])}),
        {(0, 0): 1.0},
    )
    return prog


def test_sdpa_export_structure():
    text = export_sdpa(lp_program())
    lines = text.strip().splitlines()
    assert lines[0] == "2"  # variables
    assert lines[1] == "1"  # one diagonal block
    assert lines[2] == "-4"  # 2 ineq + 2 from the equality pair
    assert len(lines[3].split()) == 2
    for line in lines[4:]:
        toks = line.split()
        assert len(toks) == 5
        assert int(toks[2]) <= int(toks[3])


def test_sdpa_round_trip_lp_and_sdp():
    from patternrelax.ipm import solve

    for make in (lp_program, sdp_program):
        prog = make()
        re_prog = parse_sdpa(export_sdpa(prog))
        r1 = solve(prog)
        r2 = solve(re_prog)
        assert r1.status == r2.status == "optimal"
        assert abs(r1.primal - r2.primal) <= 1e-6 * (1 + abs(r1.primal))


def test_sdpa_round_trip_random_programs():
    from patternrelax.ipm import solve

    rng = np.random.default_rng(21)
    done = 0
    while done < 20:
        n = int(rng.integers(1, 4))
        prog = ConicProgram(n)
        prog.c[:] = rng.uniform(-1, 1, n)
        for j in range(n):  # keep it bounded
            prog.add_ineq({j: 1.0}, -1.0)
            prog.add_ineq({j: -1.0}, -1.0)
        for _ in range(int(rng.integers(0, 3))):
            coeff = {j: float(rng.uniform(-1, 1)) for j in range(n)}
            prog.add_ineq(coeff, float(rng.uniform(-1, 0)))
        if rng.uniform() < 0.5:
            m = 2
            coeff = {j: _sym(rng, m) for j in range(n)}
            diag = float(rng.uniform(0.5, 2.0))
            prog.add_block(m, entries(coeff), {(i, i): diag for i in range(m)})
        r1 = solve(prog)
        if r1.status != "optimal":
            continue
        r2 = solve(parse_sdpa(export_sdpa(prog)))
        assert r2.status == "optimal"
        assert abs(r1.primal - r2.primal) <= 1e-6 * (1 + abs(r1.primal))
        done += 1


def _sym(rng, m):
    M = rng.uniform(-0.5, 0.5, (m, m))
    return M + M.T


def test_sdpa_export_requires_lowering_and_content():
    prog = gmc_program([0.5, 0.5])
    with pytest.raises(Exception):
        export_sdpa(prog)
    with pytest.raises(ValueError):
        export_sdpa(ConicProgram(0))


def test_sdpa_deterministic():
    text1 = export_sdpa(lp_program())
    text2 = export_sdpa(lp_program())
    assert text1 == text2


def edge_case_program():
    """Rows and a block that exercise every rule of the SDPA writer."""
    prog = ConicProgram(4)
    prog.c[:] = [0.1, -0.0, 1e22, -1 / 3]
    # coefficient dicts in unsorted insertion order; 0.0 and -0.0 are skipped
    prog.add_ineq({3: 0.5, 0: -1.25, 2: 0.0, 1: -0.0}, -2.5)
    prog.add_ineq({2: 1e-17, 0: 3.0}, 0.0)
    # an equality with a nonzero rhs is written as a negated pair of rows
    prog.add_eq({1: 2.0, 0: 1 / 3}, 1.5)
    prog.add_eq({3: -0.0, 2: 7.0}, -0.0)
    prog.add_block(3, {(3, 1, 2): 0.25, (0, 0, 0): 1.0, (2, 0, 1): 0.0,
                       (1, 1, 1): -2.0, (0, 2, 2): 1e-9},
                   {(1, 2): -0.5, (0, 0): 1.0, (2, 2): 0.0})
    prog.add_block(2, {(1, 1, 1): 0.7, (1, 0, 1): -0.0, (0, 0, 0): 2.0})
    return prog


def psd_only_program():
    """PSD blocks and no linear rows: the export has no diagonal block."""
    prog = ConicProgram(2)
    prog.c[:] = [1.0, 0.5]
    prog.add_block(2, {(1, 1, 1): 1.0, (0, 0, 1): 1.0, (0, 0, 0): 0.0}, {(0, 0): 1.0})
    prog.add_block(1, {(1, 0, 0): -3.0})
    return prog


# SHA-256 of export_sdpa of each program, recorded when the writer built one
# tuple per entry and sorted them
PINNED_EDGE_SDPA = [
    (edge_case_program,
     "f3c1458328104820b20225720a80524fd61f3f0fed07b765c2a96535ab2aa2e8"),
    (psd_only_program,
     "4febfc4c9023d7788b821718f4ffd2c1f8f662ffab3246cb77cfc36d17ca1d23"),
]


@pytest.mark.parametrize("make,digest", PINNED_EDGE_SDPA, ids=["edge-cases", "psd-only"])
def test_sdpa_export_edge_cases_pinned(make, digest):
    text = export_sdpa(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert export_sdpa(parse_sdpa(text)) == text


def test_circuit_program_sdpa_is_pinned():
    # an odd (sdsos) and an even circuit on [-1, 1]^2, whose weights 5/8 and
    # 3/8 lower to a tower of 2x2 blocks; no relax digest, solve digest or
    # benchmark job holds a circuit, so this pins build_circuit_model's sign
    # rule and the lowering.  The digest was recorded before the rule went
    # coordinate by coordinate, which treats these circuits as the whole-box
    # rule did
    from patternrelax.assemble import assemble_relaxation

    fam = PatternFamily([make_sdsos((1, 0), (0, 1)), make_circuit((0, 6), [(0, 0), (0, 16)])], 2)
    f = Polynomial(2, {(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0, (1, 1): -1.5, (0, 16): 1.0,
                       (0, 6): -1.0})
    prog = assemble_relaxation(f, fam, Box([-1.0, -1.0], [1.0, 1.0]))
    assert [g.sign_mode for g in prog.gmcs] == ["odd", "even"]
    text = export_sdpa(prog.lowered())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "b93b374e6cb2b970d692d83a286779f313697b9223e2ab52c7404149a4b971bf")


@pytest.mark.parametrize("scale", [1, 1 << 30], ids=["one-key", "lexsort"])
def test_sdpa_entry_order_is_lexicographic(scale):
    # the one-key sort and its fallback for numbers whose key would not fit
    # in int64 both give the (matno, blkno, i, j) order
    rng = np.random.default_rng(3)
    entries = np.unique(rng.integers(1, 6, size=(60, 4)), axis=0)[rng.permutation(40)]
    matno, blkno, i, j = (entries * scale).T
    order = _entry_order(matno, blkno, i, j)
    assert order.tolist() == np.lexsort((j, i, blkno, matno)).tolist()


def test_parse_sdpa_rejects_malformed():
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n")
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n-1\n0.0\n0 1 1 2 1.0\n")  # off-diagonal in diag block
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n2\n0.0\n1 1 0 2 1.0\n")  # index 0 would wrap to the last
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n-1\n0.0\n1 1 2 2 1.0\n")  # beyond a diagonal block
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n2\n0.0\n3 1 1 1 1.0\n")  # matrix 3 of one variable
    with pytest.raises(ValueError):
        parse_sdpa("1\n1\n2\n0.0\n1 2 1 1 1.0\n")  # block 2 of one
    # an entry given twice is an error in every block, not summed or replaced
    with pytest.raises(ValueError, match="repeated"):
        parse_sdpa("1\n1\n-1\n0.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n")  # diagonal block
    with pytest.raises(ValueError, match="repeated"):
        parse_sdpa("1\n1\n2\n0.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n")  # PSD block


# ---------------------------------------------------------------------------
# instance JSON


def test_instance_json_round_trip():
    f = Polynomial(2, {(1, 1): 1.0, (2, 0): -0.25})
    box = Box([-1, 0], [1, 2])
    fam = h_family(f.support())
    text = export_instance_json(f, box, fam, id="t#1", tag="t", seed=1)
    f2, box2, fam2, meta = import_instance_json(text)
    assert f2 == f and box2 == box
    assert {p.exponents for p in fam2} == {p.exponents for p in fam}
    assert meta["id"] == "t#1" and meta["seed"] == 1


def test_instance_json_missing_fields():
    with pytest.raises(ValueError, match="'f'"):
        import_instance_json('{"box": {"l": [0], "u": [1]}}')
    with pytest.raises(ValueError, match="'box'"):
        import_instance_json('{"f": {"n": 1, "terms": [[1, 1.0]]}}')
    with pytest.raises(ValueError, match="'n'"):
        import_instance_json('{"f": {"terms": []}, "box": {"l": [0], "u": [1]}}')


def test_instance_json_refuses_nan_bound():
    # Python's json reads the bare token NaN as a float
    with pytest.raises(ValueError, match="box coordinate 0 requires l <= u, got \\[nan, 1.0\\]"):
        import_instance_json('{"f": {"n": 1, "terms": [[1, 1.0]]}, "box": {"l": [NaN], "u": [1]}}')


def test_instance_json_drops_noise_coefficients():
    text = '{"f": {"n": 1, "terms": [[1, 1.0], [2, 1e-20]]}, "box": {"l": [0], "u": [1]}}'
    f, box, fam, meta = import_instance_json(text)
    assert f.support() == {(1,)}


def _malform_instance(edit) -> str:
    f = Polynomial(2, {(1, 1): 1.0, (2, 0): -0.25})
    data = json.loads(export_instance_json(f, Box([-1, 0], [1, 2]), h_family(f.support())))
    edit(data)
    return json.dumps(data)


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


# each value here loaded before as something else: 2.7 as the exponent 2,
# true as the coefficient 1.0, "1" as the bound 1.0, 1.9 as the exponent 1,
# and the shift (0.5, 0) loaded and failed inside assembly
@pytest.mark.parametrize("edit", [
    _set(("f", "terms", 0, 0), 2.7),
    _set(("f", "terms", 0, 2), True),
    _set(("box", "u", 0), "1"),
    _set(("family", "patterns", 0, 1, 0), 1.9),
    _set(("family", "meta", "shifts", 0), [0.5, 0]),
], ids=["float_exponent", "boolean_coefficient", "string_bound", "float_family_exponent",
        "float_shift"])
def test_instance_json_takes_only_json_integers_and_numbers(edit):
    with pytest.raises(ValueError, match="is not an? (integer|number)"):
        import_instance_json(_malform_instance(edit))


@pytest.mark.parametrize("method", [*sorted(FAMILY_BUILDERS), "sdsos"])
def test_instance_json_round_trip_keeps_every_pattern(method):
    # the families of every method, and circuit metadata, load as they were written
    f = gen_instance("S(2,4)", 3).f
    if method == "univariate-sparse":
        f = Polynomial(1, {(3,): -2.0, (8,): 1.0})
    fam = (PatternFamily([make_sdsos((1, 0), (0, 1))], 2) if method == "sdsos"
           else family_for_method(method, f))
    _, _, back, _ = import_instance_json(export_instance_json(f, Box.unit(f.n), fam))
    assert [(p.exponents, p.kind, p.meta, p.shift) for p in back] == \
        [(p.exponents, p.kind, p.meta, p.shift) for p in fam]


def test_lift_point_on_lowered_circuit_program():
    from patternrelax.assemble import assemble_relaxation
    from patternrelax.patterns import PatternFamily

    pat = make_sdsos((1, 0), (0, 1))
    fam = PatternFamily([pat], 2)
    f = Polynomial(2, {(1, 1): 1.0, (2, 0): 1.0, (0, 2): 1.0})
    prog = assemble_relaxation(f, fam, Box.full_space(2))
    lowered = prog.lowered()
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        v = lowered.lift_point(x)
        assert lowered.max_violation(v) <= 1e-9


def test_lift_point_sets_the_sqrt_nodes_of_a_circuit_tower():
    # weights 5/8 and 3/8 give a tower with two sqrt nodes below its top
    from patternrelax.assemble import assemble_relaxation
    from patternrelax.patterns import PatternFamily, make_circuit

    fam = PatternFamily([make_circuit((3,), [(0,), (8,)])], 1)
    f = Polynomial(1, {(3,): -1.0, (8,): 1.0})
    lowered = assemble_relaxation(f, fam, Box.nonneg_orthant(1)).lowered()
    assert sum(kind == "sqrt" for _, kind, _ in lowered.tower_lift) == 2
    rng = np.random.default_rng(5)
    for x in rng.uniform(0.0, 3.0, size=(40, 1)):
        assert lowered.max_violation(lowered.lift_point(x)) <= 1e-9
