"""Simplex solver against two oracles.

Every bounded LP in the enumeration tests has at most 8 variables, so the
optimum must be attained at one of the finitely many basic feasible
solutions and `bfs_enumerate` can list them all.  `linprog(method="highs-ds")`
with presolve off drives the same HiGHS build with the same options, so
`lp.solve` must return its status, its x and its value exactly.  So must
the same model built field by field as a `HighsLp` (`highs_lp_oracle`),
with the same simplex iteration count as well.  That oracle makes a fresh
solver per LP, and each thread's cleared, reused solver must answer as it
does: in any order, and on two threads at once.
"""

import os
import subprocess
import sys
import threading
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import highs_lp_oracle
from highs_lp_oracle import assert_highs_form
import mmot
from mmot import lp, transport
from mmot.constructions import collinear_instance
from mmot.transport import PairwiseCost, marginal_constraints


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
    assert_highs_form(p.A)
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


# ------------------------------------------------------ linprog as the oracle

LINPROG_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}


def linprog_result(c, A, b):
    """linprog's OptimizeResult under lp's options."""
    return linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds",
                   options={"presolve": False,
                            "primal_feasibility_tolerance": lp.PRIMAL_FEAS_TOL,
                            "dual_feasibility_tolerance": lp.DUAL_FEAS_TOL})


def linprog_oracle(c, A, b):
    """linprog's answer under lp's options: (status, value, x, row duals)."""
    res = linprog_result(c, A, b)
    status = LINPROG_STATUS[res.status]
    if status != lp.OPTIMAL:
        return status, None, None, None
    return status, float(np.asarray(c, dtype=float) @ res.x), res.x, res.eqlin.marginals


def assert_matches_linprog(c, A, b):
    res = lp.solve(lp.LpProblem(c, A, b))
    status, value, x, _ = linprog_oracle(c, A, b)
    assert res.status == status
    if status == lp.OPTIMAL:
        assert np.array_equal(res.x, x)
        assert res.value == value
    return res


def transport_lp(rng, shape, blocked=0.0):
    """A seeded transport LP over `shape`, with a share of its cells blocked."""
    cost = rng.integers(0, 5, size=shape).astype(float) + rng.random(shape)
    cells = np.flatnonzero(rng.random(cost.size) >= blocked)
    masses = [rng.dirichlet(np.ones(m)) for m in shape]
    return cost.ravel()[cells], marginal_constraints(shape, cells), np.concatenate(masses)


def test_linprog_oracle_on_seeded_instances():
    rng = np.random.default_rng(101)
    statuses = set()
    for _ in range(60):
        c, A, b = random_feasible_lp(rng)
        for A_in in (A, sparse.csc_array(A)):
            statuses.add(assert_matches_linprog(c, A_in, b).status)
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED}


def test_linprog_oracle_on_degenerate_instances():
    rng = np.random.default_rng(77)
    for _ in range(40):
        a, b_dim = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        C = rng.integers(0, 3, size=(a, b_dim)).astype(float)
        A = marginal_constraints((a, b_dim), np.arange(a * b_dim))
        rhs = np.concatenate([np.full(a, 1.0 / a), np.full(b_dim, 1.0 / b_dim)])
        for A_in in (A.toarray(), A):
            assert assert_matches_linprog(C.ravel(), A_in, rhs).status == lp.OPTIMAL


@pytest.mark.parametrize("shape", [(6, 5), (4, 3, 5), (3, 4, 2, 3)])
def test_linprog_oracle_on_transport_lps(shape):
    rng = np.random.default_rng(len(shape))
    for blocked in (0.0, 0.2, 0.5):
        for _ in range(5):
            assert_matches_linprog(*transport_lp(rng, shape, blocked))


def test_linprog_oracle_on_infeasible_and_unbounded():
    assert assert_matches_linprog([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]],
                                  [1.0, 2.0]).status == lp.INFEASIBLE
    assert assert_matches_linprog([-1.0, 0.0], [[1.0, -1.0]], [0.0]).status == lp.UNBOUNDED


def rank_deficient_instances(consistent=True):
    """3 x 3 transport systems, one row repeated and another doubled.

    The transport rows are already dependent; both added rows are exact
    multiples, so the system stays consistent, unless `consistent` is
    False and the repeated row's right-hand side is moved.
    """
    rng = np.random.default_rng(29)
    for _ in range(5):
        c, A, b = transport_lp(rng, (3, 3))
        rows = A.toarray()
        rhs = np.concatenate([b, [b[1], 2.0 * b[4]]])
        if not consistent:
            rhs[-2] += 0.25
        yield c, np.vstack([rows, rows[1], 2.0 * rows[4]]), rhs


def inconsistent_instances():
    yield from rank_deficient_instances(consistent=False)


def collinear_instances():
    """The five order-4 blocked-cell LPs of `collinear_instance(4, 3)`, as `mmot verify` solves them."""
    dists, cost = collinear_instance(4, 3)
    for subset in combinations(range(5), 4):
        sub = [dists[i] for i in subset]
        pair = PairwiseCost({(a, b): cost.get(subset[a], subset[b])
                             for a, b in combinations(range(4), 2)})
        full = transport._summed_cost(sub, pair)
        cells = np.flatnonzero(full.ravel() < transport.EFFECTIVELY_INFINITE)
        yield (full.ravel()[cells], marginal_constraints(full.shape, cells),
               np.concatenate([p.masses for p in sub]))


@pytest.mark.parametrize("instances,status", [
    (rank_deficient_instances, lp.OPTIMAL),
    (inconsistent_instances, lp.INFEASIBLE),
    (collinear_instances, lp.OPTIMAL),
])
def test_linprog_oracle_on_rank_deficient_systems(instances, status):
    for c, A, b in instances():
        res = assert_matches_linprog(c, A, b)
        oracle = linprog_result(c, A, b)
        assert res.status == status and res.iterations == oracle.nit
        if status == lp.OPTIMAL:
            # linprog's own primal and duals pass the certificate too
            lp._certify(lp.LpProblem(c, A, b), oracle.x, oracle.eqlin.marginals)


# ------------------------------------------------------ a HighsLp model as the oracle


def seeded_instances():
    rng = np.random.default_rng(101)
    for _ in range(60):
        yield random_feasible_lp(rng)


def degenerate_instances():
    rng = np.random.default_rng(77)
    for _ in range(40):
        a, b_dim = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        C = rng.integers(0, 3, size=(a, b_dim)).astype(float)
        rhs = np.concatenate([np.full(a, 1.0 / a), np.full(b_dim, 1.0 / b_dim)])
        yield C.ravel(), marginal_constraints((a, b_dim), np.arange(a * b_dim)), rhs


def transport_instances():
    for shape in [(6, 5), (4, 3, 5), (3, 4, 2, 3)]:
        rng = np.random.default_rng(len(shape))
        for blocked in (0.0, 0.2, 0.5):
            for _ in range(5):
                c, A, b = transport_lp(rng, shape, blocked)
                yield c, A, b
                if not blocked:
                    # the shared read-only matrix that mmot passes, taken without a copy
                    yield c, transport._full_constraints(shape), b


def infeasible_and_unbounded_instances():
    yield [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]  # inconsistent rows
    yield [1.0, 1.0], [[1.0, 1.0]], [-1.0]  # no nonnegative solution
    yield [-1.0, 0.0], [[1.0, -1.0]], [0.0]  # runs off along the diagonal
    yield [-2.0, 3.0], [[0.0, 0.0]], [0.0]  # no constraint holds x1 back


@pytest.mark.parametrize("instances,statuses", [
    (seeded_instances, {lp.OPTIMAL, lp.UNBOUNDED}),
    (degenerate_instances, {lp.OPTIMAL}),
    (transport_instances, {lp.OPTIMAL, lp.INFEASIBLE}),
    (infeasible_and_unbounded_instances, {lp.INFEASIBLE, lp.UNBOUNDED}),
    (rank_deficient_instances, {lp.OPTIMAL}),
    (inconsistent_instances, {lp.INFEASIBLE}),
    (collinear_instances, {lp.OPTIMAL}),
])
def test_highs_lp_oracle(instances, statuses):
    seen = set()
    for c, A, b in instances():
        p = lp.LpProblem(c, A, b)
        res = lp.solve(p)
        status, value, x, iterations = highs_lp_oracle.solve(p)
        assert res.status == status
        np.testing.assert_array_equal(res.x, x, strict=True)
        np.testing.assert_array_equal(res.value, value)
        assert res.iterations == iterations
        seen.add(status)
    assert seen == statuses


def test_iterations_count_simplex_pivots():
    # an order-3 transport LP needs pivots; a vacuous one is optimal at the slack basis
    res = lp.solve(lp.LpProblem(*transport_lp(np.random.default_rng(3), (4, 3, 5))))
    assert res.status == lp.OPTIMAL and res.iterations > 0
    assert lp.solve(lp.LpProblem([2.0, 3.0], [[0.0, 0.0]], [0.0])).iterations == 0


def test_noncanonical_csc_solves_as_its_dense_form():
    # HiGHS itself does not sum duplicates: without the canonical form this
    # may abort the interpreter, so the solve runs in a child process
    code = """
import numpy as np
from scipy import sparse
from mmot import lp
# column 0 holds row 1 twice (0.5 + 0.5) and its rows out of order
indptr = np.array([0, 3, 5, 7])
indices = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int32)
data = np.array([0.5, 1.0, 0.5, 1.0, 1.0, 1.0, 2.0])
A = sparse.csc_array((data, indices, indptr), shape=(2, 3))
assert not A.has_canonical_format
c, b = np.array([1.0, 2.0, 0.5]), np.array([1.0, 1.5])
sparse_sol = lp.solve(lp.LpProblem(c, A, b))
dense_sol = lp.solve(lp.LpProblem(c, A.toarray(), b))
assert sparse_sol.status == dense_sol.status == lp.OPTIMAL
assert np.array_equal(sparse_sol.x, dense_sol.x) and sparse_sol.value == dense_sol.value
print("same", sparse_sol.value)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mmot.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("same")


def test_noncanonical_csc_is_not_changed_in_place():
    indptr, indices = np.array([0, 2, 3]), np.array([1, 1, 0], dtype=np.int32)
    A = sparse.csc_array((np.array([1.0, 2.0, 3.0]), indices, indptr), shape=(2, 2))
    p = lp.LpProblem([1.0, 1.0], A, [3.0, 3.0])
    assert_highs_form(p.A)
    np.testing.assert_array_equal(p.A.toarray(), [[0.0, 3.0], [3.0, 0.0]])
    np.testing.assert_array_equal(A.indices, indices)
    np.testing.assert_array_equal(A.data, [1.0, 2.0, 3.0])
    assert A.indptr.dtype == np.int64 and not A.has_canonical_format
    assert all(arr.flags.writeable for arr in (A.data, A.indices, A.indptr))
    # a canonical matrix is copied too while any of its arrays is writable:
    # the caller may change it later
    for writable in (("data", "indices", "indptr"), ("data",), ("indices",), ("indptr",)):
        B = sparse.csc_array(np.array([[0.0, 3.0], [3.0, 0.0]]))
        for attr in ("data", "indices", "indptr"):
            getattr(B, attr).flags.writeable = attr in writable
        assert B.has_canonical_format
        q = lp.LpProblem([1.0, 1.0], B, [3.0, 3.0])
        assert q.A is not B
        assert_highs_form(q.A)
        for attr in writable:
            getattr(B, attr)[:] = 0
        np.testing.assert_array_equal(q.A.toarray(), [[0.0, 3.0], [3.0, 0.0]])


def test_frozen_matrix_with_wide_indices_is_copied_to_int32():
    B = sparse.csc_array((np.array([3.0, 3.0]), np.array([1, 0]), np.array([0, 1, 2])),
                         shape=(2, 2))
    for arr in (B.data, B.indices, B.indptr):
        arr.flags.writeable = False
    assert B.indices.dtype == np.int64 and B.has_canonical_format
    q = lp.LpProblem([1.0, 1.0], B, [3.0, 3.0])
    assert q.A is not B and B.indices.dtype == np.int64
    assert_highs_form(q.A)
    assert lp.solve(q).status == lp.OPTIMAL


def test_matrix_past_int32_indices_is_refused():
    # 2**31 rows cannot be indexed by HiGHS's 32-bit HighsInt; refused before any solve
    with pytest.raises(ValueError, match="overflows int32 indices"):
        lp.LpProblem([1.0], sparse.csc_array((2**31, 1)), [0.0])


def test_solves_do_not_depend_on_order():
    rng = np.random.default_rng(5)
    P = lp.LpProblem(*transport_lp(rng, (5, 4, 6), 0.3))
    Q = lp.LpProblem(*transport_lp(rng, (5, 4, 6), 0.3))
    alone = lp.solve(Q)
    lp.solve(P)
    after = lp.solve(Q)
    assert alone.status == after.status == lp.OPTIMAL
    assert np.array_equal(alone.x, after.x) and alone.value == after.value


# ------------------------------------------------------ one cleared solver per thread

REFUSED = "refused"  # the answer to a model HiGHS refuses: lp raises RuntimeError
REFUSED_LP = lp.LpProblem([1.0, 1.0], [[1e16, 1.0]], [1.0])


def mixed_problems():
    """A seeded list of optimal, unbounded, rank-deficient, infeasible and collinear LPs,
    with one model HiGHS refuses among them."""
    instances = [*seeded_instances(), *rank_deficient_instances(),
                 *inconsistent_instances(), *infeasible_and_unbounded_instances(),
                 *collinear_instances()]
    problems = [lp.LpProblem(c, A, b) for c, A, b in instances]
    problems.insert(len(problems) // 2, REFUSED_LP)
    return problems


def answer(p):
    """lp's (status, value, x, iterations) for p, or REFUSED."""
    try:
        res = lp.solve(p)
    except RuntimeError as err:
        assert "Model error" in str(err)
        return REFUSED
    return res.status, res.value, res.x, res.iterations


def fresh_answers(problems):
    """Each problem's answer from a fresh solver of its own (`highs_lp_oracle`)."""
    return [REFUSED if p is REFUSED_LP else highs_lp_oracle.solve(p) for p in problems]


def assert_same_answers(got, expected):
    assert len(got) == len(expected)
    for mine, fresh in zip(got, expected):
        if fresh is REFUSED or mine is REFUSED:
            assert mine is fresh
            continue
        assert mine[0] == fresh[0] and mine[3] == fresh[3]
        np.testing.assert_array_equal(mine[1], fresh[1], strict=True)
        np.testing.assert_array_equal(mine[2], fresh[2], strict=True)


def test_reused_solver_answers_do_not_depend_on_order():
    problems = mixed_problems()
    expected = fresh_answers(problems)
    assert {e if e is REFUSED else e[0] for e in expected} == {
        lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED, REFUSED}
    order = np.arange(len(problems))
    for perm in (order, order[::-1], np.random.default_rng(3).permutation(order)):
        got = [answer(problems[i]) for i in perm]
        assert_same_answers(got, [expected[i] for i in perm])


def test_two_threads_each_solve_as_a_fresh_solver():
    problems = mixed_problems()
    expected = fresh_answers(problems)
    start = threading.Barrier(2, timeout=60)
    answers, solvers, errors = {}, {}, []

    def work(name):
        try:
            start.wait()
            answers[name] = [answer(p) for p in problems]
            solvers[name] = lp._thread.highs
        except Exception as err:  # reported by the main thread
            errors.append(err)

    threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert solvers["a"] is not solvers["b"]
    for name in ("a", "b"):
        assert_same_answers(answers[name], expected)


def single_row_lp(nonzeros):
    """min c.x over sum(x) = 1: an LP with exactly `nonzeros` nonzeros."""
    c = np.random.default_rng(nonzeros).random(nonzeros)
    return lp.LpProblem(c, np.ones((1, nonzeros)), [1.0])


def test_solver_is_kept_up_to_the_nonzero_limit_and_dropped_past_it():
    at, past = single_row_lp(lp.SMALL_NONZEROS), single_row_lp(lp.SMALL_NONZEROS + 1)
    assert at.A.nnz == lp.SMALL_NONZEROS
    lp.solve(lp.LpProblem([1.0, 2.0], [[1.0, 1.0]], [1.0]))
    kept = lp._thread.highs
    assert lp.solve(at).status == lp.OPTIMAL
    assert lp._thread.highs is kept
    for _ in range(2):  # also when the dropped solver is the one just made
        sol = lp.solve(past)
        assert lp._thread.highs is None
    status, value, x, iterations = highs_lp_oracle.solve(past)
    assert (sol.status, sol.value, sol.iterations) == (status, value, iterations)
    np.testing.assert_array_equal(sol.x, x, strict=True)
    with pytest.raises(RuntimeError, match="Model error"):
        lp.solve(lp.LpProblem(np.ones(past.c.size), np.full((1, past.c.size), 1e16), [1.0]))
    assert lp._thread.highs is None  # dropped when the solve raises too
    lp.solve(at)
    assert lp._thread.highs is not None and lp._thread.highs is not kept


# ------------------------------------------------------ HiGHS model errors


@pytest.mark.parametrize("rhs", [1.0, 1e25])
def test_model_error_raises_instead_of_infeasible(rhs):
    # x = (0, 1) is feasible at rhs 1, but HiGHS refuses the 1e16
    # coefficient as a model error, which linprog reports as infeasible
    with pytest.raises(RuntimeError, match="Model error"):
        lp.solve(lp.LpProblem([1.0, 1.0], [[1e16, 1.0]], [rhs]))
    with pytest.raises(RuntimeError, match="Model error"):
        lp.feasible([[1e16, 1.0]], [rhs])


# ------------------------------------------------------ optimality certificates


def certified_transport_lp():
    c, A, b = transport_lp(np.random.default_rng(11), (4, 5))
    p = lp.LpProblem(c, A, b)
    status, _, x, y = linprog_oracle(c, A, b)
    assert status == lp.OPTIMAL
    lp._certify(p, x, y)  # the oracle's own answer passes
    return p, x, y


def test_certificate_rejects_perturbed_primal():
    p, x, y = certified_transport_lp()
    moved = x.copy()
    moved[np.argmax(moved)] += 1e-6
    with pytest.raises(RuntimeError, match="not primal feasible"):
        lp._certify(p, moved, y)


def test_certificate_rejects_negative_primal():
    # Ax = b holds exactly, but x leaves the orthant
    p = lp.LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0])
    with pytest.raises(RuntimeError, match="not primal feasible"):
        lp._certify(p, np.array([1.0 + 1e-6, -1e-6]), np.array([1.0]))


def test_certificate_rejects_negative_reduced_cost():
    p, x, y = certified_transport_lp()
    raised = y.copy()
    raised[0] += 1.0 + np.max(np.abs(p.c))
    with pytest.raises(RuntimeError, match="not dual feasible"):
        lp._certify(p, x, raised)


def test_certificate_rejects_duality_gap():
    # lowering one dual keeps c - A'y >= 0 (A >= 0) but opens a gap of 1e-6 * b[0]
    p, x, y = certified_transport_lp()
    lowered = y.copy()
    lowered[0] -= 1e-6
    with pytest.raises(RuntimeError, match="duality gap"):
        lp._certify(p, x, lowered)


def random_csc(rng):
    """A canonical CSC matrix with an empty row, an empty column and explicit zeros."""
    m, n = int(rng.integers(2, 30)), int(rng.integers(1, 30))
    empty_row, empty_col = int(rng.integers(m)), int(rng.integers(n))
    rows = np.delete(np.arange(m), empty_row)
    columns = [np.sort(rng.choice(rows, size=0 if j == empty_col else int(rng.integers(m)),
                                  replace=False)) for j in range(n)]
    indices = np.concatenate(columns).astype(np.int32)
    data = rng.normal(size=indices.size)
    data[rng.random(indices.size) < 0.2] = 0.0
    indptr = np.concatenate([[0], np.cumsum([col.size for col in columns])])
    return sparse.csc_array((data, indices, indptr), shape=(m, n))


def test_certificate_products_match_scipy():
    rng = np.random.default_rng(23)
    explicit_zeros = 0
    for _ in range(100):
        A = random_csc(rng)
        assert A.has_canonical_format
        assert 0 in np.diff(A.indptr) and np.unique(A.indices).size < A.shape[0]
        explicit_zeros += int(np.sum(A.data == 0.0))
        x, y = rng.normal(size=A.shape[1]), rng.normal(size=A.shape[0])
        Ax, ATy = lp._csc_products(A, x, y)
        np.testing.assert_array_equal(Ax, A @ x, strict=True)
        np.testing.assert_array_equal(ATy, A.T @ y, strict=True)
    assert explicit_zeros > 0
    # no entry at all
    Ax, ATy = lp._csc_products(sparse.csc_array((3, 2)), np.ones(2), np.ones(3))
    np.testing.assert_array_equal(Ax, np.zeros(3), strict=True)
    np.testing.assert_array_equal(ATy, np.zeros(2), strict=True)
