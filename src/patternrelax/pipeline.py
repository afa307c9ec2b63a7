"""One relaxation end to end: assemble, lower and solve, then certify.

A max solve minimizes -f; Relaxation.bound turns its value back into an
upper bound on max f.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .assemble import assemble_relaxation
from .certificates import Certificate, VerifyReport, extract_certificate, verify_certificate
from .ipm import SolveResult, SolverConfig, solve
from .models import ModelPolicy
from .patterns import PatternFamily
from .polynomials import Box, Polynomial
from .program import ConicProgram


@dataclass
class Relaxation:
    """A solved relaxation; the result's duals index the lowered program."""

    program: ConicProgram  # the lowered program
    result: SolveResult
    solve_s: float  # wall time of the solve alone

    @property
    def bound(self) -> float:
        """The solver's primal objective in the solve's sense: approximately a
        lower bound on min f, or an upper bound on max f.

        It is a bound only up to the solver's tolerances; certify() checks
        the certificate's coefficients within COEFF_TOL, not exactly.
        """
        primal = self.result.primal
        return primal if self.program.meta["sense"] == "min" else -primal

    def certify(self) -> tuple[Certificate, VerifyReport]:
        """The dual certificate and its independent verification report."""
        cert = extract_certificate(self.program, self.result)
        meta = self.program.meta
        return cert, verify_certificate(cert, meta["minimized"], meta["box"])


def solve_relaxation(f: Polynomial, fam: PatternFamily, box: Box, sense: str = "min",
                     policy: ModelPolicy | None = None,
                     cfg: SolverConfig | None = None) -> Relaxation:
    """Relax f over the box with the family's patterns, lower and solve."""
    from . import hsde  # noqa: F401  loads scipy here, so that solve_s is the solve alone
    cfg = cfg or SolverConfig()
    prog = assemble_relaxation(f, fam, box, policy, sense).lowered(cfg.gmc_denominator_cap)
    t0 = time.perf_counter()
    result = solve(prog, cfg)
    return Relaxation(prog, result, time.perf_counter() - t0)
