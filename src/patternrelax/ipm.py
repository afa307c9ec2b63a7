"""Solver configuration, result and entry point for lowered conic programs.

solve imports the solver core (hsde), and with it scipy, at its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .program import ConicProgram


@dataclass
class SolverConfig:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iter: int = 200
    gmc_denominator_cap: int = 1 << 16

    def __post_init__(self):
        if min(self.feas_tol, self.gap_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolveResult:
    status: str  # optimal, infeasible, unbounded, max_iter, numerical_failure
    primal: float = math.nan
    dual: float = math.nan
    x: np.ndarray | None = None
    y_eq: np.ndarray | None = None
    z_lin: np.ndarray | None = None
    z_psd: list = field(default_factory=list)
    s_lin: np.ndarray | None = None
    s_psd: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    history: list = field(default_factory=list)


def solve(prog: ConicProgram, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a lowered conic program (no GMC records left)."""
    from .hsde import InconsistentEqualities, _solve_hsde, _StandardForm

    cfg = cfg or SolverConfig()
    try:
        sf = _StandardForm(prog)
    except InconsistentEqualities:
        return SolveResult("infeasible", math.inf, math.inf,
                           residuals={"certificate": 0.0}, iterations=0)
    if np.any(sf.c[sf.untouched]):
        # a column in no constraint, with a cost: moving it against its cost
        # is a ray with c'x < 0, A x = 0 and G x = 0
        return SolveResult("unbounded", -math.inf, -math.inf,
                           residuals={"certificate": 0.0}, iterations=0)
    return _solve_hsde(sf, cfg)
