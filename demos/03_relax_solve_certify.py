"""Full pipeline on one polynomial: relax, solve, extract, verify.

Minimizes f = x1^2*x2 - x1*x2 + 0.3*x2^2 - 0.5*x1 over the unit box with
two different pattern families, then audits the returned lower bounds with
independently re-expanded certificates and a brute-force scan.
"""

import numpy as np

from patternrelax.bench import brute_force_min, family_for_method
from patternrelax.pipeline import solve_relaxation
from patternrelax.polynomials import Box, Polynomial

f = Polynomial(2, {(2, 1): 1.0, (1, 1): -1.0, (0, 2): 0.3, (1, 0): -0.5})
box = Box.unit(2)
oracle = brute_force_min(f, box)
print(f"objective support: {sorted(f.support())}")
print(f"brute-force minimum (upper bound on min): {oracle.value:.9f} "
      f"at x = {np.round(oracle.point, 5)}")
print()

for method in ("M", "H"):
    fam = family_for_method(method, f)
    rel = solve_relaxation(f, fam, box)
    lowered, result = rel.program, rel.result
    print(f"method {method}: {len(fam)} patterns -> {lowered.ncols} variables, "
          f"{len(lowered.ineqs)} rows, {len(lowered.blocks)} PSD blocks")
    print(f"  status {result.status} after {result.iterations} iterations")
    print(f"  lower bound {rel.bound:.9f}  (dual {result.dual:.9f})")
    cert, report = rel.certify()
    kinds = {}
    for piece in cert.pieces:
        kinds[piece.kind] = kinds.get(piece.kind, 0) + 1
    print(f"  certificate kind={cert.kind}, pieces={kinds}")
    print(f"  independent verification: {report}")
    gap = oracle.value - rel.bound
    print(f"  oracle gap (>= 0): {gap:.3e}")
    print()

# a maximization run: the certificate then bounds -f from below
rel = solve_relaxation(f, family_for_method("H", f), box, sense="max")
print(f"maximization with H: upper bound {rel.bound:.9f}")
print(f"  verification on -f: {rel.certify()[1]}")
