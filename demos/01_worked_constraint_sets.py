"""Three small moment-body models, printed constraint by constraint.

Each block below builds one of the textbook constructions and dumps the
generated rows/LMIs so they can be compared against the closed forms:
McCormick's four product inequalities, a two-variable Lasserre model over
squared coordinates, and a shifted multilinear model.
"""

import numpy as np

from patternrelax.models import (
    build_lasserre_model,
    build_mccormick_model,
    build_shifted_model,
)
from patternrelax.patterns import Pattern
from patternrelax.polynomials import Box

print("=" * 70)
print("McCormick on [-1,1]^2 for the pattern {0,1}^2")
print("=" * 70)
square = Pattern(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}), kind="multilinear")
print(build_mccormick_model(square, Box([-1, -1], [1, 1])).dump())

print()
print("=" * 70)
print("Lasserre model, Gamma = diag(2,2), d = 1, on [-1,1] x [-2,2]")
print("(moment matrix over {1, x1^2, x2^2} plus the two quadratic localizers)")
print("=" * 70)
print(build_lasserre_model(np.diag([2, 2]), 1, Box([-1, -2], [1, 2])).dump())

print()
print("=" * 70)
print("Chain Gamma = (1,2)^T, d = 1, on [-1,2] x [1,2]")
print("(x1*x2^2 ranges over [-4, 8]; the localizer expands symbolically)")
print("=" * 70)
print(build_lasserre_model(np.array([[1], [2]]), 1, Box([-1, 1], [2, 2])).dump())

print()
print("=" * 70)
print("Shifted multilinear: McCormick slice lifted by eta = (0,0,1)")
print("on [0,1]^2 x [1,2]; constants homogenize onto v_(0,0,1)")
print("=" * 70)
box = Box([0, 0, 1], [1, 1, 2])
base = build_mccormick_model(
    Pattern(frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}),
            kind="multilinear"),
    box,
)
print(build_shifted_model((0, 0, 1), base, box).dump())
