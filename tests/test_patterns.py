import hashlib
import json

import numpy as np
import pytest

from patternrelax.bench import STRUCTURED_SETS, family_for_method, gen_instance
from patternrelax.patterns import (
    AffinelyDependent,
    NotInRelativeInterior,
    Pattern,
    PatternError,
    PatternFamily,
    PatternTooLarge,
    build_family,
    chain_family,
    dense_sos_family,
    expression_tree_family,
    gamma_image,
    h_family,
    make_circuit,
    make_sdsos,
    mc_family,
    multilinear_family,
    prune_inclusion_maximal,
    shifted_chain_family,
    truncated_submonoid_family,
    tssos_partition,
    univariate_sparse_family,
)
from patternrelax.polynomials import Polynomial


def sets(fam):
    return [p.exponents for p in fam]


def test_multilinear_family_examples():
    fam = multilinear_family({(3, 3)})
    assert sets(fam) == [frozenset({(0, 0), (3, 0), (0, 3), (3, 3)})]
    fam = multilinear_family({(0, 0)})
    assert sets(fam) == [frozenset({(0, 0)})]
    fam = multilinear_family({(1, 1), (1, 0)})
    assert sets(fam) == [frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})]


def test_chain_family_examples():
    assert sets(chain_family({(2, 2)})) == [frozenset({(0, 0), (1, 1), (2, 2)})]
    assert sets(chain_family({(1, 2)})) == [frozenset({(0, 0), (1, 2), (2, 4)})]
    assert sets(chain_family({(3, 0)})) == [
        frozenset({(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)})]


def test_chain_family_contains_zero_and_alpha_even_top():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        alpha = tuple(int(k) for k in rng.integers(0, 6, n))
        if not any(alpha):
            continue
        fam = chain_family({alpha})
        (pat,) = fam.patterns
        assert (0,) * n in pat.exponents
        assert alpha in pat.exponents
        assert pat.meta["steps"] % 2 == 0


def test_shifted_chain_family_examples():
    fam = shifted_chain_family({(2, 3)})
    expect = frozenset({(2, 0), (2, 1), (2, 2), (2, 3), (2, 4)})
    assert expect in sets(fam)
    matching = [p for p in fam if p.exponents == expect]
    assert matching[0].shift == (2, 0)

    fam = shifted_chain_family({(0, 0)})
    assert sets(fam) == [frozenset({(0, 0)})]

    fam = shifted_chain_family({(1, 1)})
    assert frozenset({(0, 1), (1, 1), (2, 1)}) in sets(fam)


def test_h_family_example():
    fam = h_family({(2, 2)})
    expected = [
        frozenset({(0, 0), (1, 0), (2, 0)}),
        frozenset({(0, 0), (0, 1), (0, 2)}),
        frozenset({(0, 0), (1, 1), (2, 2)}),
        frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}),
        frozenset({(0, 0), (2, 0), (0, 2), (2, 2)}),
    ]
    assert sorted(map(sorted, sets(fam))) == sorted(map(sorted, expected))


def test_h_family_univariate_collapses():
    fam = h_family({(1,)})
    assert sets(fam) == [frozenset({(0,), (1,), (2,)})]


def test_h_family_degenerate_zero():
    fam = h_family({(0, 0)})
    assert sets(fam) == [frozenset({(0, 0)})]


def test_truncated_submonoid_examples():
    fam = truncated_submonoid_family({(4, 0)})
    assert sets(fam) == [
        frozenset({(0, 0), (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)})]

    fam = truncated_submonoid_family({(1, 0)})
    assert frozenset({(0, 0), (1, 0), (2, 0)}) in sets(fam)
    assert len(fam) == 2

    fam = truncated_submonoid_family({(0, 0)})
    assert sets(fam) == [frozenset({(0, 0)})]


def test_truncated_submonoid_cap():
    # the even submonoid of degree 40 in 4 variables has 10626 exponents
    with pytest.raises(PatternTooLarge, match="cap 5000"):
        truncated_submonoid_family({(10, 10, 10, 10)})


def test_gamma_image_examples():
    pat = gamma_image(np.diag([2, 2]), {(i, j) for i in range(3) for j in range(3 - i)})
    assert pat.exponents == {(0, 0), (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)}
    pat = gamma_image(np.array([[1], [2]]), {(0,), (1,), (2,)})
    assert pat.exponents == {(0, 0), (1, 2), (2, 4)}
    base = frozenset({(0, 1), (2, 0)})
    pat = gamma_image(np.eye(2, dtype=int), base)
    assert pat.exponents == base


def test_gamma_image_rank_deficient_rejected():
    with pytest.raises(PatternError):
        gamma_image(np.array([[1, 2], [2, 4]]), {(0, 0), (1, 0)})


def test_gamma_image_composes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        base = {tuple(int(v) for v in rng.integers(0, 3, 2)) for _ in range(4)}
        G1 = rng.integers(0, 3, (3, 2))
        G2 = rng.integers(0, 3, (4, 3))
        if np.linalg.matrix_rank(G1) < 2 or np.linalg.matrix_rank(G2 @ G1) < 2 \
                or np.linalg.matrix_rank(G2) < 3:
            continue
        inner = gamma_image(G1, base)
        outer = gamma_image(G2, inner.exponents)
        direct = gamma_image(G2 @ G1, base)
        assert outer.exponents == direct.exponents


def test_expression_tree_family_examples():
    f = Polynomial(3, {(1, 1, 4): 1.0})
    fam = expression_tree_family(f)
    assert frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 4), (1, 1, 4)}) in sets(fam)
    assert frozenset({(0, 0, 4), (0, 0, 1)}) in sets(fam)

    f = Polynomial(3, {(2, 0, 0): 1.0})
    fam = expression_tree_family(f)
    assert sets(fam) == [frozenset({(2, 0, 0), (1, 0, 0)})]

    with pytest.raises(PatternError):
        expression_tree_family(Polynomial(3, {(1, 0, 0): 1.0}))


def test_make_circuit_examples():
    pat = make_circuit((1, 1), [(0, 0), (3, 0), (0, 3)])
    assert np.allclose(pat.meta["lambdas"], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    with pytest.raises(NotInRelativeInterior):
        make_circuit((3, 0), [(0, 0), (3, 0), (0, 3)])
    pat = make_sdsos((1, 0), (0, 1))
    assert pat.meta["beta"] == (1, 1)
    assert pat.meta["gammas"] == ((2, 0), (0, 2))
    assert np.allclose(pat.meta["lambdas"], [0.5, 0.5])


def test_make_circuit_affinely_dependent():
    with pytest.raises(AffinelyDependent):
        make_circuit((2, 2), [(0, 0), (2, 2), (4, 4)])
    with pytest.raises(NotInRelativeInterior):
        make_circuit((5, 0), [(0, 0), (4, 0)])


def test_circuit_reconstruction_invariant():
    rng = np.random.default_rng(11)
    built = 0
    for _ in range(300):
        if built >= 20:
            break
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gammas = [(0, 0), (2 * a, 0), (0, 2 * b)]
        i, j = int(rng.integers(1, 2 * a)), int(rng.integers(1, 2 * b))
        if i / (2 * a) + j / (2 * b) >= 1.0:
            continue
        pat = make_circuit((i, j), gammas)
        lams = np.array(pat.meta["lambdas"])
        recon = np.sum([l * np.array(g) for l, g in zip(lams, pat.meta["gammas"])],
                       axis=0)
        assert np.max(np.abs(recon - np.array(pat.meta["beta"]))) <= 1e-10
        assert abs(lams.sum() - 1.0) <= 1e-10
        built += 1
    assert built >= 20


def test_tssos_partition_examples():
    blocks = tssos_partition({(0,), (4,)}, {(0,), (1,), (2,)})
    assert blocks == [frozenset({(0,), (2,)}), frozenset({(1,)})]

    B = {(0,), (1,), (2,)}
    dense_A = {(i + j,) for i in range(3) for j in range(3)}
    blocks = tssos_partition(dense_A, B)
    assert blocks == [frozenset(B)]

    blocks = tssos_partition({(0,)}, {(0,), (1,)})
    assert blocks == [frozenset({(0,)}), frozenset({(1,)})]


def test_tssos_partition_precondition():
    with pytest.raises(PatternError):
        tssos_partition({(9,)}, {(0,), (1,)})
    # (1,) = (0,) + (1,) is in B + B, and joins the two
    assert tssos_partition({(1,)}, {(0,), (1,)}) == [frozenset({(0,), (1,)})]


def _tssos_step(S, B):
    """One term-sparsity iteration, as a reference: b, c in B are joined when b + c is in S."""
    blocks = [{b} for b in B]
    for b in B:
        for c in B:
            if tuple(x + y for x, y in zip(b, c)) in S:
                gb = next(g for g in blocks if b in g)
                gc = next(g for g in blocks if c in g)
                if gb is not gc:
                    gb |= gc
                    blocks.remove(gc)
    return [frozenset(g) for g in blocks]


def test_tssos_partition_coarsens_monotonically():
    rng = np.random.default_rng(2)
    for _ in range(10):
        B = sorted({tuple(int(v) for v in rng.integers(0, 3, 2)) for _ in range(6)})
        sums = sorted({tuple(a + b for a, b in zip(x, y)) for x in B for y in B})
        A = [sums[i] for i in rng.choice(len(sums), size=min(4, len(sums)),
                                         replace=False)]
        S = set(A) | {tuple(2 * e for e in b) for b in B}
        prev = None
        for _ in range(len(B) + 1):
            blocks = _tssos_step(S, B)
            if prev is not None:
                for g_old in prev:
                    assert any(g_old <= g_new for g_new in blocks)
            prev = blocks
            S = {tuple(x + y for x, y in zip(b, c)) for g in blocks for b in g for c in g}
        # tssos_partition returns the fixed point of the iteration
        assert sorted(map(sorted, tssos_partition(A, B))) == sorted(map(sorted, prev))


def test_univariate_sparse_family_examples():
    fam = univariate_sparse_family({0, 2, 6})
    assert [sorted(p.exponents) for p in fam] == [
        [(i,), (i + 1,), (i + 2,)] for i in range(5)]
    with pytest.raises(PatternError):
        univariate_sparse_family({0, 1, 2})
    fam = univariate_sparse_family({0, 3, 4, 7, 10})
    assert len(fam) == 7
    assert all(len(p.exponents) == 5 for p in fam)


def test_univariate_sparse_family_adds_the_constant():
    assert (univariate_sparse_family({2, 6}).to_json_dict()
            == univariate_sparse_family({0, 2, 6}).to_json_dict())


# SHA-256 of json.dumps(family.to_json_dict(), sort_keys=True), recorded when
# the tssos-sos and dense-sos families were built by the benchmark harness,
# univariate-sparse required the constant 0 in its set and MC added two families
PINNED_FAMILY_JSON = [
    ("tssos-dense26", lambda: family_for_method("tssos-sos", gen_instance("dense(2,6)", 1).f),
     "7fb5a193aa2fcb2fb8a2e614f841a09f6a3bcb7d4ccbab98c0d77042e2a9b083"),
    ("tssos-A5", lambda: family_for_method("tssos-sos", gen_instance("A5", 1).f),
     "520f67650e2acd3f796137054d883cd9cb74e494c41c96b7602d4de5a010d5da"),
    ("univariate", lambda: univariate_sparse_family({0, 2, 3, 7, 10}),
     "c9ad77db98b200439c171413727ee2c8ae82ec7a62de86c7ed433d6327be18da"),
    ("dense-sos", lambda: dense_sos_family(2, 2),
     "0be6fdbc836ece4294f094bb62350564e70052b6f74ca1b1aad60891554a301f"),
    ("MC-Aex", lambda: build_family("MC", STRUCTURED_SETS["Aex"]()),
     "fa0e6ad2b10be715db6a097e1af61cac28d477d4cc7f1358bb4c291290c75bb2"),
    ("S-A7", lambda: build_family("S", STRUCTURED_SETS["A7"]()),
     "0cd27799fc2a5387492af4325f027f7cda73b1767bac7b912c2c307bb9a81f35"),
]


@pytest.mark.parametrize("build,digest", [c[1:] for c in PINNED_FAMILY_JSON],
                         ids=[c[0] for c in PINNED_FAMILY_JSON])
def test_family_json_is_pinned(build, digest):
    text = json.dumps(build().to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_prune_examples():
    p1 = Pattern(frozenset({(0,), (1,)}))
    p2 = Pattern(frozenset({(0,), (1,), (2,)}))
    assert prune_inclusion_maximal([p1, p2]) == [p2]
    p3 = Pattern(frozenset({(1,), (2,)}))
    kept = prune_inclusion_maximal([p1, p3])
    assert sets_list(kept) == [p1.exponents, p3.exponents]
    kept = prune_inclusion_maximal([p1, Pattern(frozenset({(0,), (1,)}))])
    assert len(kept) == 1


def sets_list(pats):
    return [p.exponents for p in pats]


def test_prune_no_subset_pairs_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pats = []
        for _ in range(12):
            pts = {tuple(int(v) for v in rng.integers(0, 3, 2))
                   for _ in range(rng.integers(1, 5))}
            pats.append(Pattern(frozenset(pts)))
        kept = prune_inclusion_maximal(pats)
        for i, p in enumerate(kept):
            for j, q in enumerate(kept):
                if i != j:
                    assert not p.exponents <= q.exponents


def prune_by_all_pairs(pats):
    """The O(P^2) loop prune_inclusion_maximal once ran, as its reference."""
    keep = []
    for i, p in enumerate(pats):
        dominated = False
        for j, q in enumerate(pats):
            if i == j:
                continue
            if p.exponents < q.exponents or (p.exponents == q.exponents and j < i):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return keep


def test_prune_matches_all_pairs_reference():
    # duplicate exponent sets carry different kinds and metadata; the first
    # one is the one kept, since it decides which model gets built
    rng = np.random.default_rng(23)
    kinds = ("generic", "multilinear", "chain", "submonoid")
    for _ in range(40):
        pats = []
        for t in range(int(rng.integers(1, 30))):
            if pats and rng.uniform() < 0.3:
                pts = pats[int(rng.integers(len(pats)))].exponents
            else:
                pts = {tuple(int(v) for v in rng.integers(0, 3, 3))
                       for _ in range(rng.integers(1, 7))}
            pats.append(Pattern(frozenset(pts), kind=str(rng.choice(kinds)),
                                meta={"tag": t}))
        kept = prune_inclusion_maximal(pats)
        expected = prune_by_all_pairs(pats)
        assert len(kept) == len(expected)
        assert all(p is q for p, q in zip(kept, expected))


def test_mc_family_is_pruned_union():
    A = {(2, 2), (1, 0)}
    fam = mc_family(A)
    union = prune_inclusion_maximal(
        multilinear_family(A).patterns + chain_family(A).patterns)
    assert sorted(map(sorted, sets(fam))) == sorted(
        sorted(p.exponents) for p in union)


def test_family_json_round_trip():
    fam = h_family({(2, 2)})
    data = fam.to_json_dict()
    assert set(data) == {"kind", "patterns", "meta"}
    back = PatternFamily.from_json_dict(data)
    assert sets(back) == sets(fam)
    assert [p.kind for p in back] == [p.kind for p in fam]

    circ = PatternFamily([make_sdsos((1, 0), (0, 1))], 2)
    back = PatternFamily.from_json_dict(circ.to_json_dict())
    assert back.patterns[0].meta["lambdas"] == (0.5, 0.5)


def test_dimension_consistency_checks():
    with pytest.raises(PatternError):
        Pattern(frozenset({(0, 0), (1,)}))
    with pytest.raises(PatternError):
        PatternFamily([Pattern(frozenset({(0, 0)})), Pattern(frozenset({(0,)}))])
