"""Smoke test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/smoke.py

A tiny configuration of each workload runs for a moment, untraced and
traced, and must report every metric BENCHMARK.json declares, by name and
with its unit, with a passing correctness gate. Then a family constructor that
raises must be counted as a failed job, without ending the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

TINY = {"lp-a6": "A5", "chain-c26": "dense(2,2)", "relax-d64": "dense(3,2)"}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], tag=TINY[name], instances=2)


def declared(section: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    errors = []
    for name in sorted(workloads.WORKLOADS):
        w = tiny(name)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            res = run.measure(w, seed=1, seconds=0.2, trace=trace, setup_repeats=1)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != declared(section):
                errors.append(f"{name} trace={trace}: metrics {got} != {declared(section)}")
            if not res["correct"] or res["failed"]:
                errors.append(f"{name} trace={trace}: gate failed: {res['problems']}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{res['attempted']} attempted, {res['failed']} failed")

    build = workloads.family_for_method
    calls = []

    def raising(method, f):
        calls.append(method)
        if len(calls) == 1:
            raise RuntimeError("deliberate failure")
        return build(method, f)

    workloads.family_for_method = raising
    try:
        res = run.measure(tiny("lp-a6"), seed=1, seconds=0.0, trace=False, setup_repeats=1)
    finally:
        workloads.family_for_method = build
    if not (res["failed"] == 1 and res["attempted"] == 4 and res["correct"]):
        errors.append(f"raising family: expected 1 of 4 failed, got {res['failed']} "
                      f"of {res['attempted']}")
    print(f"raising family: {res['failed']} of {res['attempted']} failed, run completed")

    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
