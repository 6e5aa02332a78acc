"""Equality-form LPs solved by HiGHS dual revised simplex.

min c.x  s.t.  A x = b, x >= 0, with A dense or scipy.sparse.  Transport
constraint systems are rank-deficient; HiGHS removes dependent rows and
detects inconsistent ones itself.  The simplex returns a basic optimal
solution, and the same problem gives the same answer on every run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "FEASIBLE",
    "LpProblem",
    "LpSolution",
    "PivotLimitError",
    "solve",
    "feasible",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FEASIBLE = "feasible"

# well below the 1e-8 marginal check (transport.MARGINAL_TOL) that every
# optimal coupling must pass
PRIMAL_FEAS_TOL = 1e-10
DUAL_FEAS_TOL = 1e-10
DEFAULT_MAX_PIVOTS = 1_000_000


class PivotLimitError(RuntimeError):
    """Raised when the simplex exceeds its pivot budget; not an infeasibility."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    c: np.ndarray
    A: np.ndarray | sp.csc_array
    b: np.ndarray

    def __init__(self, c, A, b):
        c = np.asarray(c, dtype=float)
        A = sp.csc_array(A, dtype=float) if sp.issparse(A) else np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("c and b must be vectors, A a matrix")
        if A.shape != (b.shape[0], c.shape[0]) or c.shape[0] < 1 or b.shape[0] < 1:
            raise ValueError(f"inconsistent dimensions: A {A.shape}, c {c.shape}, b {b.shape}")
        for name, arr in (("c", c), ("A", A.data if sp.issparse(A) else A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains NaN or infinite entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str
    value: float
    x: np.ndarray


def _highs(p: LpProblem, max_pivots: int) -> LpSolution:
    """The one HiGHS call behind both `solve` and `feasible`."""
    res = linprog(
        p.c, A_eq=p.A, b_eq=p.b, bounds=(0, None), method="highs-ds",
        options={"maxiter": max_pivots,
                 "primal_feasibility_tolerance": PRIMAL_FEAS_TOL,
                 "dual_feasibility_tolerance": DUAL_FEAS_TOL},
    )
    n = p.c.shape[0]
    if res.status == 0:
        return LpSolution(OPTIMAL, float(p.c @ res.x), res.x)
    if res.status == 1:
        raise PivotLimitError(f"simplex exceeded {max_pivots} pivots")
    if res.status == 2:
        return LpSolution(INFEASIBLE, np.nan, np.full(n, np.nan))
    if res.status == 3:
        return LpSolution(UNBOUNDED, -np.inf, np.full(n, np.nan))
    raise RuntimeError(f"HiGHS failed: {res.message}")


def solve(p: LpProblem, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpSolution:
    """Minimize c.x over A x = b, x >= 0; a basic optimal solution when one exists."""
    return _highs(p, max_pivots)


def feasible(A, b, max_pivots: int = DEFAULT_MAX_PIVOTS):
    """Feasibility check: (FEASIBLE, x) or (INFEASIBLE, None)."""
    sol = _highs(LpProblem(np.zeros(np.shape(A)[1]), A, b), max_pivots)
    if sol.status == INFEASIBLE:
        return INFEASIBLE, None
    return FEASIBLE, sol.x
