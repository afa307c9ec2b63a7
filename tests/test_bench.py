import json
import math

import numpy as np
import pytest

from patternrelax.bench import (
    BenchConfig,
    SplitMix64,
    brute_force_min,
    exponent_set_for_tag,
    family_for_method,
    gen_instance,
    records_to_csv,
    run_benchmark,
    triv_criterion,
    trivial_bounds,
)
from patternrelax.models import BuilderError, ModelPolicy
from patternrelax.patterns import chain_family, dense_sos_family
from patternrelax.polynomials import Box, Polynomial

MASK = (1 << 64) - 1


def reference_splitmix(seed, count):
    """Independent inline reimplementation used as the oracle."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix_matches_reference():
    for seed in (0, 1, 42, 2**63):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(5)]
        assert got == reference_splitmix(seed, 5)


def test_splitmix_uniform_and_sampling():
    rng = SplitMix64(7)
    vals = [rng.uniform(-1, 1) for _ in range(1000)]
    assert all(-1 <= v < 1 for v in vals)
    assert abs(np.mean(vals)) < 0.1
    rng = SplitMix64(3)
    picked = rng.sample(range(100), 10)
    assert len(set(picked)) == 10


def test_exponent_set_sizes():
    rng = SplitMix64(1)
    assert len(exponent_set_for_tag("S(4,10)", rng)) == 32  # ceil(sqrt(1001))
    assert len(exponent_set_for_tag("A5", rng)) == 11
    assert len(exponent_set_for_tag("dense(2,10)", rng)) == 66
    assert len(exponent_set_for_tag("A6", rng)) == 11
    assert len(exponent_set_for_tag("A7", rng)) == 31
    assert len(exponent_set_for_tag("A8", rng)) == 51
    assert len(exponent_set_for_tag("Aex", rng)) == 6


def test_structured_sets_match_definitions():
    rng = SplitMix64(1)
    a5 = exponent_set_for_tag("A5", rng)
    assert a5 == [(k, k) for k in range(11)]
    aex = exponent_set_for_tag("Aex", rng)
    assert aex == [(0, 2), (1, 1), (2, 3), (2, 4), (4, 0), (5, 5)]


def test_gen_instance_deterministic_and_bounded():
    a = gen_instance("S(3,4)", 9)
    b = gen_instance("S(3,4)", 9)
    assert a.f == b.f and a.id == b.id
    c = gen_instance("S(3,4)", 10)
    assert c.f != a.f
    assert all(-1.0 <= v <= 1.0 for v in a.f.terms.values())
    assert a.box == Box.unit(3)


def test_gen_instance_guards():
    with pytest.raises(ValueError):
        gen_instance("dense(30,30)", 1)
    with pytest.raises(ValueError):
        gen_instance("nope", 1)


def test_constant_term_included_when_zero_in_support():
    inst = gen_instance("dense(2,2)", 4)
    assert (0, 0) in inst.f.terms


def test_brute_force_examples():
    f = Polynomial(2, {(1, 1): 1.0})
    assert abs(brute_force_min(f, Box.unit(2)).value) <= 1e-12
    f = Polynomial(1, {(2,): 1.0, (1,): -1.0})
    res = brute_force_min(f, Box.unit(1))
    assert abs(res.value + 0.25) <= 1e-9
    assert abs(res.point[0] - 0.5) <= 1e-4


def test_brute_force_requires_bounded_small_box():
    f = Polynomial(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        brute_force_min(f, Box.nonneg_orthant(1))
    with pytest.raises(ValueError):
        brute_force_min(Polynomial(7, {tuple([1] * 7): 1.0}), Box.unit(7))


def test_trivial_bounds_and_triv_examples():
    f = Polynomial(1, {(1,): 1.0})
    assert trivial_bounds(f, Box.unit(1)) == (0.0, 1.0)
    fam = chain_family({(1,)})
    assert abs(triv_criterion(f, Box.unit(1), fam) - 1.0) <= 1e-6

    f = Polynomial(1, {(2,): 1.0, (1,): -1.0})
    fam = chain_family({(2,)})
    val = triv_criterion(f, Box.unit(1), fam)
    assert abs(val - 0.125) <= 1e-6  # range [-1/4, 0] over trivial [-1, 1]

    f = Polynomial(1, {(0,): 3.0})
    assert triv_criterion(f, Box.unit(1), fam) == 0.0


def test_family_for_method_dispatch():
    f = Polynomial(2, {(2, 2): 1.0, (0, 0): -1.0})
    for method in ("M", "C", "S", "H", "MC", "T"):
        fam = family_for_method(method, f)
        assert len(fam) >= 1
    f1 = Polynomial(1, {(6,): 1.0, (2,): -1.0, (0,): 1.0})
    fam = family_for_method("univariate-sparse", f1)
    assert len(fam) == 5
    with pytest.raises(ValueError):
        family_for_method("bogus", f)


def test_dense_sos_family_single_block():
    fam = dense_sos_family(2, 2)
    assert len(fam) == 1
    assert len(fam.patterns[0].meta["basis"]) == 6


def test_run_benchmark_records_and_determinism():
    cfg = BenchConfig(families=["S(2,3)"], methods=["M", "C"], samples=3,
                      base_seed=5)
    records, summary = run_benchmark(cfg)
    assert len(records) == 3 * 2 * 2  # instances x methods x senses
    assert all(r.status == "optimal" for r in records)
    for r in records:
        assert 0.0 <= r.triv <= 1.0 + 1e-6
    csv1 = records_to_csv(records)
    assert csv1.splitlines()[0] == (
        "instance_id,family,method,sense,value,triv,status,iters,time_s")
    records2, _ = run_benchmark(cfg)
    # every column but the last, time_s, is deterministic
    assert [line.rsplit(",", 1)[0] for line in csv1.splitlines()] == [
        line.rsplit(",", 1)[0] for line in records_to_csv(records2).splitlines()]
    by_key = {(r.family, r.method) for r in records}
    assert {(row["family"], row["method"]) for row in summary} == by_key
    for row in summary:
        assert 0.0 <= row["triv_median"] <= 1.0 + 1e-6
        assert row["mean_time_s"] >= 0.0
        assert row["solved"] == row["instances"] == 3


def test_run_benchmark_empty_methods():
    cfg = BenchConfig(families=["S(2,3)"], methods=[], samples=2)
    records, summary = run_benchmark(cfg)
    assert records == [] and summary == []
    assert records_to_csv(records).splitlines() == [
        "instance_id,family,method,sense,value,triv,status,iters,time_s"]


def test_bench_config_from_json():
    cfg = BenchConfig.from_json_dict(json.loads(
        '{"families": ["A5"], "methods": ["C"], "samples": 2, "base_seed": 3,'
        ' "policy": {"vertex_cap": 6}, "solver": {"max_iter": 50}}'))
    assert cfg.samples == 2 and cfg.solver.max_iter == 50
    with pytest.raises(ValueError):
        BenchConfig.from_json_dict({"methods": []})


def test_benchmark_failure_recorded_not_raised():
    cfg = BenchConfig(families=["S(2,3)"], methods=["univariate-sparse"], samples=1)
    records, summary = run_benchmark(cfg)  # method invalid for n=2 instances
    assert len(records) == 2
    assert all(r.status.startswith("error:") for r in records)
    assert all(math.isnan(r.value) for r in records)
    assert [(row["solved"], row["instances"]) for row in summary] == [(0, 1)]


def test_assembly_failure_recorded_not_raised(monkeypatch):
    def failing_assembly(*args, **kwargs):
        raise BuilderError("pattern cannot be modelled")

    monkeypatch.setattr("patternrelax.pipeline.assemble_relaxation", failing_assembly)
    cfg = BenchConfig(families=["S(2,3)"], methods=["M", "C"], samples=2)
    records, summary = run_benchmark(cfg)
    assert len(records) == 2 * 2 * 2  # instances x methods x senses
    assert all(r.status == "error:pattern cannot be modelled" for r in records)
    assert all(math.isnan(r.value) for r in records)
    assert all(r.time_s == 0.0 for r in records)  # no solve ran
    assert all(math.isnan(row["triv_median"]) for row in summary)
