"""Simplex solver against an exhaustive basic-feasible-solution oracle.

Every bounded LP here has at most 8 variables, so the optimum must be
attained at one of the finitely many basic feasible solutions and the
oracle below can enumerate them all.
"""

from itertools import combinations

import numpy as np
import pytest
from scipy import sparse

from mmot import lp


def bfs_enumerate(c, A, b, feas_tol=1e-9):
    """Return (best_value, best_x) over all basic feasible solutions.

    Enumerates every column subset of size rank(A), solves the square
    subsystem, and keeps solutions that are feasible for the full system.
    Returns (None, None) when no subset yields a feasible point.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    rank = np.linalg.matrix_rank(A, tol=1e-10)
    best_val, best_x = None, None
    for cols in combinations(range(n), rank):
        sub = A[:, cols]
        x_sub, _, srank, _ = np.linalg.lstsq(sub, b, rcond=None)
        if srank < rank:
            continue
        x = np.zeros(n)
        x[list(cols)] = x_sub
        if np.any(x < -feas_tol):
            continue
        if np.max(np.abs(A @ x - b)) > feas_tol:
            continue
        val = float(c @ x)
        if best_val is None or val < best_val:
            best_val, best_x = val, x
    return best_val, best_x


def random_feasible_lp(rng, max_vars=8):
    """LP with a planted feasible point, so phase one always succeeds."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, n))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.1, 1.0, size=n)
    b = A @ x0
    c = rng.normal(size=n)
    return c, A, b


def test_matches_bfs_enumeration_on_seeded_instances():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(60):
        c, A, b = random_feasible_lp(rng)
        oracle_val, _ = bfs_enumerate(c, A, b)
        # the same system given dense and as a sparse matrix
        for A_in in (A, sparse.csc_array(A)):
            res = lp.solve(lp.LpProblem(c, A_in, b))
            if res.status == lp.UNBOUNDED:
                # the oracle cannot certify unboundedness; just require that
                # some feasible point beats every basic feasible solution
                break
            assert res.status == lp.OPTIMAL
            assert oracle_val is not None
            assert abs(res.value - oracle_val) <= 1e-8 * (1 + abs(oracle_val))
            assert np.all(res.x >= -1e-9)
            assert np.max(np.abs(A @ res.x - b)) <= 1e-8
        else:
            checked += 1
    assert checked >= 30


def test_degenerate_ties_still_match_oracle():
    # integer costs and equal masses produce heavily tied ratio tests
    rng = np.random.default_rng(77)
    for _ in range(40):
        a, b_dim = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        mu = np.full(a, 1.0 / a)
        nu = np.full(b_dim, 1.0 / b_dim)
        C = rng.integers(0, 3, size=(a, b_dim)).astype(float)
        rows = []
        for i in range(a):
            r = np.zeros((a, b_dim))
            r[i, :] = 1.0
            rows.append(r.ravel())
        for j in range(b_dim):
            r = np.zeros((a, b_dim))
            r[:, j] = 1.0
            rows.append(r.ravel())
        A = np.array(rows)
        rhs = np.concatenate([mu, nu])
        res = lp.solve(lp.LpProblem(C.ravel(), A, rhs))
        oracle_val, _ = bfs_enumerate(C.ravel(), A, rhs)
        assert res.status == lp.OPTIMAL
        assert abs(res.value - oracle_val) <= 1e-8


def test_detects_unbounded():
    # x1 - x2 = 0 with objective -x1 runs off along the diagonal
    res = lp.solve(lp.LpProblem([-1.0, 0.0], [[1.0, -1.0]], [0.0]))
    assert res.status == lp.UNBOUNDED


def test_detects_infeasible_inconsistent_rows():
    A = [[1.0, 1.0], [1.0, 1.0]]
    b = [1.0, 2.0]
    res = lp.solve(lp.LpProblem([1.0, 1.0], A, b))
    assert res.status == lp.INFEASIBLE


def test_detects_infeasible_by_sign():
    # x1 + x2 = -1 has no nonnegative solution
    res = lp.solve(lp.LpProblem([1.0, 1.0], [[1.0, 1.0]], [-1.0]))
    assert res.status == lp.INFEASIBLE


def test_vacuous_constraints_minimum_at_origin():
    # the all-zero row is consistent and drops out, leaving no constraints
    res = lp.solve(lp.LpProblem([2.0, 3.0], [[0.0, 0.0]], [0.0]))
    assert res.status == lp.OPTIMAL
    assert res.value == 0.0
    assert np.all(res.x == 0.0)

    res = lp.solve(lp.LpProblem([-2.0, 3.0], [[0.0, 0.0]], [0.0]))
    assert res.status == lp.UNBOUNDED


def test_redundant_rows_are_dropped():
    # second row is a copy of the first; consistent, rank 1
    A = [[1.0, 1.0], [1.0, 1.0]]
    b = [1.0, 1.0]
    res = lp.solve(lp.LpProblem([1.0, 2.0], A, b))
    assert res.status == lp.OPTIMAL
    assert abs(res.value - 1.0) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_A_with_nonfinite_entries_rejected(bad):
    with pytest.raises(ValueError, match="A contains NaN"):
        lp.LpProblem([1.0, 1.0], [[1.0, 0.0], [0.0, bad]], [1.0, 1.0])


def test_dense_A_is_stored_as_csc():
    A = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    p = lp.LpProblem([1.0, 1.0, 1.0], A, [1.0, 1.0])
    assert isinstance(p.A, sparse.csc_array)
    np.testing.assert_array_equal(p.A.toarray(), A)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sparse_A_with_nonfinite_data_rejected(bad):
    A = sparse.csc_array(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="A contains NaN"):
        lp.LpProblem([1.0, 1.0], A, [1.0, 1.0])


def test_feasible_reports_witness():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    status, x = lp.feasible(A, b)
    assert status == lp.FEASIBLE
    assert np.max(np.abs(A @ x - b)) <= 1e-8
    assert np.all(x >= -1e-9)

    status, x = lp.feasible([[1.0, 1.0]], [-2.0])
    assert status == lp.INFEASIBLE
    assert x is None
