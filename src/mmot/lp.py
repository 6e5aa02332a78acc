"""Equality-form LPs solved by HiGHS dual revised simplex.

min c.x  s.t.  A x = b, x >= 0; A may come dense or scipy.sparse and is
stored in HiGHS's form, which only this module makes (`_to_highs_form`):
canonical float64 CSC, int32 indices, all arrays read-only.  A matrix in
that form, as `transport.marginal_constraints` builds each, is not copied.
Transport constraint systems are rank-deficient, and HiGHS's dual simplex
runs on them as built, with no presolve: a dependent row keeps its logical
column basic, with a zero dual, and an inconsistent one ends the solve as
infeasible.  The simplex returns a basic optimal solution, and the same
problem gives the same answer on every run.

Each solve hands the CSC arrays, costs and bounds to scipy's HiGHS
binding (`scipy.optimize._highspy._core`, which scipy's own HiGHS
methods drive) through the array overload of `passModel`, which reads
the numpy buffers in one call.  Each thread solves its LPs in its own
solver, made once with `_OPTIONS` and cleared by `clearModel` before
every LP.  That drops the model, basis, solution and info, keeping only
the options, so no basis carries over between LPs and every answer
depends on its own LP alone, whatever was solved before it.  A solver
that has run an LP of more than `SMALL_NONZEROS` nonzeros keeps that
LP's workspace through any clear, so the thread drops it and makes a
new one for its next LP.
An optimal answer must prove itself: the primal point and the row duals
pass a residual, dual-feasibility and duality-gap check, or the solve
raises.  The check computes A x and A'y from the CSC arrays with numpy,
summing in the order scipy's sparse products do.  A model HiGHS refuses
(a coefficient or bound past its infinity, say) raises too; it is never
reported as infeasible.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _h

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "FEASIBLE",
    "LpProblem",
    "LpSolution",
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

# the options scipy's method="highs-ds" sets, but for presolve: on these
# small LPs it costs more than the simplex itself (a 16 x 16 transport LP
# runs about 3.5x as long with it), and the simplex needs no row removed
_OPTIONS = _h.HighsOptions()
_OPTIONS.presolve = "off"
_OPTIONS.solver = "simplex"
_OPTIONS.simplex_strategy = _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.primal_feasibility_tolerance = PRIMAL_FEAS_TOL
_OPTIONS.dual_feasibility_tolerance = DUAL_FEAS_TOL
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone

# the array overload of passModel takes these two as plain ints; the last
# array it takes is the integrality of each column, all continuous (0)
_COLWISE = int(_h.MatrixFormat.kColwise)
_MINIMIZE = int(_h.ObjSense.kMinimize)

_ANSWERS = (_h.HighsModelStatus.kOptimal, _h.HighsModelStatus.kInfeasible,
            _h.HighsModelStatus.kUnbounded)

# an LP of at most this many nonzeros is small: `transport` caches its
# full-cell constraint matrix, and the thread's solver is kept after it.
# A solver that ran a larger LP is dropped, since no clear frees its
# workspace: after one 50 x 50 x 50 transport LP it held about 35 MB.
SMALL_NONZEROS = 1 << 14

_thread = threading.local()  # .highs: this thread's solver, or None


def _in_highs_form(A) -> bool:
    """True for a matrix already in HiGHS's form, so `LpProblem` takes it without a copy."""
    return (isinstance(A, sp.csc_array) and A.dtype == np.float64
            and A.indices.dtype == A.indptr.dtype == np.int32
            and not any(arr.flags.writeable for arr in (A.data, A.indices, A.indptr))
            and A.has_canonical_format)


def _to_highs_form(A: sp.csc_array) -> sp.csc_array:
    """Put a float64 CSC array no one else holds into HiGHS's form, in place."""
    if max(A.shape + (A.nnz,)) > np.iinfo(np.int32).max:
        raise ValueError(f"{A.shape} matrix with {A.nnz} nonzeros overflows int32 indices")
    A.sum_duplicates()  # HiGHS sums none itself
    # HiGHS's own 32-bit HighsInt, so passModel copies no index
    A.indices, A.indptr = [arr.astype(np.int32, copy=False) for arr in (A.indices, A.indptr)]
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


@dataclass(frozen=True, eq=False)
class LpProblem:
    c: np.ndarray
    A: sp.csc_array
    b: np.ndarray

    def __init__(self, c, A, b):
        c = np.asarray(c, dtype=float)
        if not _in_highs_form(A):
            # a copy, so the caller's arrays stay as they were; raises unless A is a matrix
            A = _to_highs_form(sp.csc_array(A, dtype=float, copy=True))
        b = np.asarray(b, dtype=float)
        if c.ndim != 1 or b.ndim != 1:
            raise ValueError("c and b must be vectors")
        if A.shape != (b.shape[0], c.shape[0]) or c.shape[0] < 1 or b.shape[0] < 1:
            raise ValueError(f"inconsistent dimensions: A {A.shape}, c {c.shape}, b {b.shape}")
        for name, arr in (("c", c), ("A", A.data), ("b", b)):
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
    iterations: int  # simplex iterations HiGHS reports for the solve


def _csc_products(A: sp.csc_array, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A @ x and A.T @ y from A's CSC arrays, each entry summed in scipy's order."""
    (m, n), rows = A.shape, A.indices
    cols = np.repeat(np.arange(n), np.diff(A.indptr))
    # bincount of nothing counts in ints, whatever the weights
    return (np.bincount(rows, weights=A.data * x[cols], minlength=m).astype(float, copy=False),
            np.bincount(cols, weights=A.data * y[rows], minlength=n).astype(float, copy=False))


def _certify(p: LpProblem, x: np.ndarray, y: np.ndarray) -> None:
    """Raise unless x is primal feasible, y dual feasible and their objectives meet."""
    Ax, ATy = _csc_products(p.A, x, y)
    residual, lowest = float(np.max(np.abs(Ax - p.b))), float(np.min(x))
    if residual > PRIMAL_FEAS_TOL * (1.0 + np.max(np.abs(p.b))) or lowest < -PRIMAL_FEAS_TOL:
        raise RuntimeError(f"HiGHS optimum is not primal feasible: |Ax - b| = {residual:.3g}, "
                           f"min x = {lowest:.3g}")
    reduced = float(np.min(p.c - ATy))
    if reduced < -DUAL_FEAS_TOL * (1.0 + np.max(np.abs(p.c))):
        raise RuntimeError(f"HiGHS optimum is not dual feasible: min(c - A'y) = {reduced:.3g}")
    primal = float(p.c @ x)
    gap = abs(primal - float(p.b @ y))
    if gap > DUAL_FEAS_TOL * (1.0 + abs(primal)):
        raise RuntimeError(f"HiGHS optimum has duality gap {gap:.3g}")


def _highs(p: LpProblem) -> LpSolution:
    """The one HiGHS call behind both `solve` and `feasible`, in this thread's solver."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _h._Highs()
        highs.passOptions(_OPTIONS)
    highs.clearModel()  # no model, basis or solution of an earlier LP is left
    try:
        return _run(highs, p)
    finally:
        if p.A.nnz > SMALL_NONZEROS:
            _thread.highs = None


def _run(highs: _h._Highs, p: LpProblem) -> LpSolution:
    """Solve p in a solver that holds `_OPTIONS` and no model."""
    (m, n), A = p.A.shape, p.A
    if highs.passModel(n, m, A.nnz, _COLWISE, _MINIMIZE, 0.0, p.c, np.zeros(n),
                       np.full(n, _h.kHighsInf), p.b, p.b, A.indptr, A.indices, A.data,
                       np.zeros(n, dtype=np.int32)) == _h.HighsStatus.kError:
        raise RuntimeError("HiGHS failed: "
                           + highs.modelStatusToString(_h.HighsModelStatus.kModelError))
    run = highs.run()
    status = highs.getModelStatus()
    if run == _h.HighsStatus.kError or status not in _ANSWERS:
        raise RuntimeError(f"HiGHS failed: {highs.modelStatusToString(status)}")
    iterations = int(highs.getInfoValue("simplex_iteration_count")[1])
    if status == _h.HighsModelStatus.kInfeasible:
        return LpSolution(INFEASIBLE, np.nan, np.full(n, np.nan), iterations)
    if status == _h.HighsModelStatus.kUnbounded:
        return LpSolution(UNBOUNDED, -np.inf, np.full(n, np.nan), iterations)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    _certify(p, x, np.array(solution.row_dual))
    return LpSolution(OPTIMAL, float(p.c @ x), x, iterations)


def solve(p: LpProblem) -> LpSolution:
    """Minimize c.x over A x = b, x >= 0; a basic optimal solution when one exists."""
    return _highs(p)


def feasible(A, b):
    """Feasibility check: (FEASIBLE, x) or (INFEASIBLE, None)."""
    sol = _highs(LpProblem(np.zeros(np.shape(A)[1]), A, b))
    if sol.status == INFEASIBLE:
        return INFEASIBLE, None
    return FEASIBLE, sol.x
