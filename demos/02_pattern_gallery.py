"""Every pattern family for one support set, side by side.

The support A_ex = {(0,2), (1,1), (2,3), (2,4), (4,0), (5,5)} mixes axis
points, diagonal points, and off-grid exponents, so the methods disagree in
interesting ways about which monomials to link.
"""

from patternrelax.patterns import build_family, expression_tree_family
from patternrelax.polynomials import Polynomial

A_EX = [(0, 2), (1, 1), (2, 3), (2, 4), (4, 0), (5, 5)]

for method in ("M", "C", "S", "H", "MC", "T"):
    fam = build_family(method, A_EX)
    print(f"method {method}: {len(fam)} patterns "
          f"({len(fam.union_support())} linked monomials)")
    for pat in fam:
        pts = pat.sorted_exponents()
        head = ", ".join(str(p) for p in pts[:6])
        tail = ", ..." if len(pts) > 6 else ""
        extra = f" shift={pat.shift}" if pat.shift else ""
        print(f"    {pat.kind:<13} |P|={len(pts):<3} {{{head}{tail}}}{extra}")
    print()

f = Polynomial(2, {a: 1.0 for a in A_EX})
fam = expression_tree_family(f)
print(f"expression tree: {len(fam)} patterns")
for pat in fam:
    print(f"    {pat.kind:<13} {pat.sorted_exponents()}")
