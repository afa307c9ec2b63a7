"""Two exactness results, checked numerically.

First: sparse univariate minimization over the nonnegative axis is solved
exactly by shifted low-order moment blocks (block i couples exponents
i..i+2k only), matching a derivative-root oracle.  Second: the stabilized
term-sparsity partition gives block-diagonal moment matrices whose bound
coincides with the dense one.
"""

import numpy as np

from patternrelax.bench import family_for_method
from patternrelax.patterns import dense_sos_family, tssos_partition, univariate_sparse_family
from patternrelax.pipeline import solve_relaxation
from patternrelax.polynomials import Box, Polynomial, degrees_up_to

# --- sparse univariate over R_+ --------------------------------------------
f = Polynomial(1, {(10,): 0.4, (7,): -1.0, (3,): 0.8, (2,): -0.3, (0,): 0.5})
fam = univariate_sparse_family({0, 2, 3, 7, 10})
print(f"support {{0,2,3,7,10}} (5 terms, so k=2): {len(fam)} shifted blocks, "
      f"each 5 monomials wide")
bound = solve_relaxation(f, fam, Box.nonneg_orthant(1)).bound

coeffs = np.zeros(11)
for (k,), c in f.terms.items():
    coeffs[k] = c
deriv = np.array([k * coeffs[k] for k in range(1, 11)])
crit = [r.real for r in np.roots(deriv[::-1]) if abs(r.imag) < 1e-9 and r.real > 0]
oracle = min([coeffs[0]] + [f.evaluate([x]) for x in crit])
print(f"  relaxation bound: {bound:.9f}")
print(f"  true infimum:     {oracle:.9f}   (|diff| = {abs(bound - oracle):.2e})")
print()

# --- term-sparsity partition -------------------------------------------------
g = Polynomial(2, {(4, 0): 2.0, (0, 4): 2.0, (2, 2): -1.0, (2, 0): -1.0,
                   (0, 0): 1.0})
B = degrees_up_to(2, 2)
blocks = tssos_partition(set(g.support()), B)
print(f"partition of the degree-2 basis for an even-support quartic:")
for blk in blocks:
    print(f"  block {sorted(blk)}")
box = Box.full_space(2)
sparse = solve_relaxation(g, family_for_method("tssos-sos", g), box).bound
dense = solve_relaxation(g, dense_sos_family(2, 2), box).bound
print(f"  sparse bound {sparse:.9f} vs dense {dense:.9f} "
      f"(|diff| = {abs(sparse - dense):.2e})")
