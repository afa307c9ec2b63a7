"""Pattern-based sparse convex relaxations for polynomial minimization.

The pipeline: build a pattern family over the objective's support, turn each
pattern into a convex moment model, assemble everything into one conic
program over shared monomial variables, solve it with the internal
interior-point method, and extract a verifiable lower-bound certificate from
the dual solution.

The package root re-exports nothing: each name is imported from the module
that defines it, as in ``from patternrelax.pipeline import solve_relaxation``.
"""

__version__ = "0.1.0"
