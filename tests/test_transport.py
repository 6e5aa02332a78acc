"""Exact transport solvers against independent oracles.

The 1D oracle is the monotone rearrangement: for costs |x-y|^ell with
ell >= 1 the optimal coupling pairs quantiles in order, computable by a
two-pointer sweep with no LP involved.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from mmot import core, lp, metric_props, transport
from mmot.constructions import collinear_instance
from mmot.core import DiscreteDistribution, JointMass, braket, marginal
from mmot.metric_props import no_gluing_check
from mmot.transport import (
    EFFECTIVELY_INFINITE,
    SENTINEL_COST,
    PairwiseCost,
    marginal_constraints,
    barycenter_mmot,
    euclidean_cost,
    mmot,
    pairwise_mmot,
    wasserstein,
)

from atom_oracle import index_maps as index_maps_oracle
from highs_lp_oracle import assert_highs_form


def w1d_oracle(xs, mus, ys, nus, ell):
    """Monotone rearrangement value for 1D distributions, rooted."""
    ox = np.argsort(xs)
    oy = np.argsort(ys)
    xs, mus = np.asarray(xs)[ox], np.asarray(mus)[ox]
    ys, nus = np.asarray(ys)[oy], np.asarray(nus)[oy]
    i = j = 0
    ri, rj = mus[0], nus[0]
    total = 0.0
    while i < len(xs) and j < len(ys):
        m = min(ri, rj)
        total += m * abs(xs[i] - ys[j]) ** ell
        ri -= m
        rj -= m
        if ri <= 1e-15:
            i += 1
            ri = mus[i] if i < len(xs) else 0.0
        if rj <= 1e-15:
            j += 1
            rj = nus[j] if j < len(ys) else 0.0
    return total ** (1.0 / ell)


def random_1d(rng, max_atoms=5):
    n = int(rng.integers(2, max_atoms + 1))
    xs = np.sort(rng.uniform(-2, 2, size=n))
    while np.min(np.diff(xs)) < 1e-6:
        xs = np.sort(rng.uniform(-2, 2, size=n))
    m = rng.uniform(0.1, 1.0, size=n)
    m /= m.sum()
    return xs, m, DiscreteDistribution(xs, m)


def random_planar(rng, max_atoms=4):
    n = int(rng.integers(2, max_atoms + 1))
    pts = rng.uniform(-1, 1, size=(n, 2))
    m = rng.uniform(0.1, 1.0, size=n)
    m /= m.sum()
    return DiscreteDistribution(pts, m)


SHAPES = [(1, 1), (2, 3), (4, 1), (3, 2, 4), (1, 5, 2), (2, 2, 2, 3), (3, 1, 2, 2)]


@pytest.mark.parametrize("shape", SHAPES)
def test_marginal_constraints_match_dense_build(shape):
    n_cells = int(np.prod(shape))
    coords = np.unravel_index(np.arange(n_cells), shape)
    dense = np.vstack([np.eye(m)[coords[axis]].T for axis, m in enumerate(shape)])
    rng = np.random.default_rng(n_cells)
    subset = np.sort(rng.choice(n_cells, size=n_cells // 2, replace=False))
    built = []
    for cells in (np.arange(n_cells), subset):
        got = marginal_constraints(shape, cells)
        np.testing.assert_array_equal(got.toarray(), dense[:, cells])
        built.append(got)
    if len(shape) == 3:
        # the bivariate blocks p23, p13, p12 of the gluing probe, against
        # the COO build it had before it shared this builder
        m1, m2, m3 = shape
        i, j, k = coords
        rows = np.concatenate([j * m3 + k, m2 * m3 + i * m3 + k,
                               (m2 + m1) * m3 + i * m2 + j])
        want = sp.csc_array((np.ones(3 * n_cells), (rows, np.tile(np.arange(n_cells), 3))),
                            shape=(m2 * m3 + m1 * m3 + m1 * m2, n_cells))
        got = marginal_constraints(shape, np.arange(n_cells), blocks=[(1, 2), (0, 2), (0, 1)])
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
        built.append(got)
    # every system comes out in HiGHS's form, and LpProblem takes it without a copy
    for A in built:
        assert_highs_form(A)
        # an LP needs a column: the half subset of one cell is empty
        assert A.shape[1] == 0 or lp.LpProblem(np.ones(A.shape[1]), A, np.ones(A.shape[0])).A is A


@pytest.mark.parametrize("shape", SHAPES)
def test_full_constraints_are_cached_and_read_only(shape):
    cells = np.arange(int(np.prod(shape)))
    cached = transport._constraints(shape, cells)
    want = marginal_constraints(shape, cells)
    assert cached.shape == want.shape and cached is not want
    assert_highs_form(cached)
    for attr in ("indptr", "indices", "data"):
        arr = getattr(cached, attr)
        np.testing.assert_array_equal(arr, getattr(want, attr))
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    assert transport._constraints(shape, cells) is cached
    # LpProblem takes the shared matrix as it is, without a copy
    p = lp.LpProblem(np.ones(cells.size), cached, np.ones(cached.shape[0]))
    assert p.A is cached


def test_only_small_full_systems_are_cached():
    # 128 x 64 cells over 2 axes is 16,384 nonzeros, the most the cache keeps
    for shape, cached in (((128, 64), True), ((129, 64), False), ((3, 4), True)):
        cells = np.arange(int(np.prod(shape)))
        got = transport._constraints(shape, cells)
        assert (got is transport._constraints(shape, cells)) == cached
        assert_highs_form(got)
    # a blocked cell gets its own matrix over the open cells, in the same form
    got = transport._constraints((3, 4), np.arange(1, 12))
    assert got.shape == (7, 11) and got is not transport._constraints((3, 4), np.arange(1, 12))
    assert_highs_form(got)


def test_mmot_solves_full_lps_on_the_cached_matrix(monkeypatch):
    seen = []
    real = lp.solve

    def record(p):
        seen.append(p.A)
        return real(p)

    monkeypatch.setattr(lp, "solve", record)
    rng = np.random.default_rng(8)
    p, q = random_planar(rng), random_planar(rng)
    d = euclidean_cost(p, q)
    first, again = wasserstein(p, q, d), wasserstein(p, q, d)
    assert first.value == again.value and first.iterations == again.iterations
    assert seen[0] is seen[1] is transport._full_constraints((p.size, q.size))
    d[0, 0] = EFFECTIVELY_INFINITE
    wasserstein(p, q, d)
    assert seen[2].shape == (p.size + q.size, p.size * q.size - 1)


def test_blocked_and_probe_lps_hand_highs_the_built_matrix(monkeypatch):
    built, passed = [], []

    def build(*args, **kwargs):
        built.append(marginal_constraints(*args, **kwargs))
        return built[-1]

    real = lp._highs
    monkeypatch.setattr(transport, "marginal_constraints", build)
    monkeypatch.setattr(metric_props, "marginal_constraints", build)
    monkeypatch.setattr(lp, "_highs", lambda p: passed.append(p.A) or real(p))
    # the collinear sentinel costs leave only the 3 diagonal cells open
    dists, cost = collinear_instance(3, 3)
    res = pairwise_mmot(dists[:3], cost)
    assert not res.effectively_infinite and built[0].shape == (9, 3)
    j = res.coupling
    assert no_gluing_check(marginal(j, [0, 1]), marginal(j, [0, 2]), marginal(j, [1, 2])).feasible
    assert len(passed) == len(built) == 2
    assert passed[0] is built[0] and passed[1] is built[1]


class TestWasserstein:
    def test_monotone_rearrangement_oracle_50_seeded(self):
        rng = np.random.default_rng(606)
        for trial in range(50):
            xs, mus, p = random_1d(rng)
            ys, nus, q = random_1d(rng)
            d = np.abs(xs[:, None] - ys[None, :])
            ell = int(rng.integers(1, 4))
            got = wasserstein(p, q, d, ell=ell).value
            want = w1d_oracle(xs, mus, ys, nus, ell)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    def test_point_masses(self):
        p = DiscreteDistribution([0.0], [1.0])
        q = DiscreteDistribution([3.0], [1.0])
        d = euclidean_cost(p, q)
        assert wasserstein(p, q, d, ell=1).value == pytest.approx(3.0, abs=1e-12)
        assert wasserstein(p, q, d, ell=2).value == pytest.approx(3.0, abs=1e-12)

    def test_identical_distributions_cost_zero(self):
        rng = np.random.default_rng(4)
        _, _, p = random_1d(rng)
        d = euclidean_cost(p, p)
        assert wasserstein(p, p, d).value == pytest.approx(0.0, abs=1e-12)

    def test_coupling_has_prescribed_marginals(self):
        rng = np.random.default_rng(5)
        xs, mus, p = random_1d(rng)
        ys, nus, q = random_1d(rng)
        res = wasserstein(p, q, np.abs(xs[:, None] - ys[None, :]))
        np.testing.assert_allclose(res.coupling.entries.sum(axis=1), mus, atol=1e-9)
        np.testing.assert_allclose(res.coupling.entries.sum(axis=0), nus, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        _, _, p = random_1d(rng)
        _, _, q = random_1d(rng)
        with pytest.raises(ValueError):
            wasserstein(p, q, np.zeros((p.size + 1, q.size)))


class TestMMOT:
    def test_two_marginals_reduces_to_wasserstein(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            xs, _, p = random_1d(rng)
            ys, _, q = random_1d(rng)
            d = np.abs(xs[:, None] - ys[None, :])
            ell = int(rng.integers(1, 3))
            assert mmot([p, q], d, ell=ell).value == pytest.approx(
                wasserstein(p, q, d, ell=ell).value, abs=1e-10
            )

    def test_zero_cost_tensor(self):
        rng = np.random.default_rng(32)
        ps = [random_planar(rng) for _ in range(3)]
        d = np.zeros(tuple(p.size for p in ps))
        assert mmot(ps, d).value == pytest.approx(0.0, abs=1e-12)

    def test_blocked_cells_are_avoided(self):
        p = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        q = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        # a cell is blocked when its powered cost d**ell reaches 1e12
        for big, ell in ((EFFECTIVELY_INFINITE, 1), (1e6, 2)):
            d = np.array([[0.0, 1.0], [1.0, 0.0]])
            d[0, 0] = big
            res = wasserstein(p, q, d, ell=ell)
            assert res.coupling.entries[0, 0] == pytest.approx(0.0, abs=1e-12)
            # mass from atom 0 is forced across at unit cost
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_fully_blocked_returns_sentinel_product_coupling(self):
        p = DiscreteDistribution([0.0], [1.0])
        q = DiscreteDistribution([1.0], [1.0])
        for big, ell in ((EFFECTIVELY_INFINITE, 1), (1e6, 2)):
            res = wasserstein(p, q, np.full((1, 1), big), ell=ell)
            assert res.value == SENTINEL_COST and res.iterations == 0
            np.testing.assert_allclose(res.coupling.entries, [[1.0]])
        # costs whose power stays below 1e12 are open, however large
        for cost, ell in ((0.999e6, 2), (1e7, 1)):
            res = mmot([p, q], np.full((1, 1), cost), ell=ell)
            assert res.value == pytest.approx(cost, rel=1e-12)
            assert not res.effectively_infinite

    def test_overflowing_power_is_blocked(self):
        # 1e200 ** 2 overflows to inf: blocked like 1e7 ** 2 >= 1e12, where
        # the overflow used to raise under the suite's warnings-as-errors
        p = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        q = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        got = wasserstein(p, q, [[0.0, 1e200], [1e200, 1.0]], ell=2)
        want = wasserstein(p, q, [[0.0, 1e7], [1e7, 1.0]], ell=2)
        assert got.value == want.value == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert np.array_equal(got.coupling.entries, want.coupling.entries)

    def test_cells_over_the_cap_refused(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_ENTRIES", 3)
        p = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="a coupling tensor needs 4 cells, over the cap 3"):
            mmot([p, p], np.ones((2, 2)))
        omega = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="a barycenter cost tensor needs 8 cells, over the cap 3"):
            barycenter_mmot([p, p], omega, np.abs(omega[:, None] - omega))

    def test_allowed_cells_without_feasible_coupling_return_sentinel(self):
        # only cell (0,0) is finite, but it can carry half the mass at most:
        # the LP over the allowed cells is infeasible
        p = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        q = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        d = np.full((2, 2), EFFECTIVELY_INFINITE)
        d[0, 0] = 0.0
        for res in (wasserstein(p, q, d), mmot([p, q], d, ell=2)):
            assert res.value == SENTINEL_COST and res.iterations == 0
            assert res.effectively_infinite
            np.testing.assert_allclose(res.coupling.entries, np.full((2, 2), 0.25))
        # pairwise MMOT takes the same verdict: with only cell (0,0) open
        # between spaces 0 and 1, no three-way coupling fits
        r = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
        costs = PairwiseCost({(0, 1): d, (0, 2): np.ones((2, 2)), (1, 2): np.ones((2, 2))})
        res = pairwise_mmot([p, q, r], costs)
        assert res.value == SENTINEL_COST and res.iterations == 0
        assert res.effectively_infinite and res.per_pair_terms is None
        np.testing.assert_allclose(res.coupling.entries, np.full((2, 2, 2), 0.125))


def euclidean_pairwise(ps):
    return PairwiseCost({(s, t): euclidean_cost(ps[s], ps[t]) for s, t in combinations(range(len(ps)), 2)})


class TestEll:
    @pytest.mark.parametrize("ell", [0, -1, 1.5, np.nan, np.inf])
    def test_non_positive_or_fractional_ell_rejected(self, ell):
        p, q = DiscreteDistribution([0.0], [1.0]), DiscreteDistribution([4.0], [1.0])
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            mmot([p, q], [[4.0]], ell=ell)
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            wasserstein(p, q, [[4.0]], ell=ell)


class TestPairwiseMMOT:
    def test_requires_ell_one(self):
        rng = np.random.default_rng(41)
        ps = [random_planar(rng) for _ in range(3)]
        with pytest.raises(ValueError, match="ell"):
            pairwise_mmot(ps, euclidean_pairwise(ps), ell=2)

    def test_two_marginals_equals_wasserstein(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            ps = [random_planar(rng) for _ in range(2)]
            d01 = euclidean_cost(ps[0], ps[1])
            got = pairwise_mmot(ps, PairwiseCost({(0, 1): d01})).value
            assert got == pytest.approx(wasserstein(ps[0], ps[1], d01).value, abs=1e-10)

    def test_per_pair_terms_sum_to_value(self):
        rng = np.random.default_rng(43)
        ps = [random_planar(rng) for _ in range(3)]
        res = pairwise_mmot(ps, euclidean_pairwise(ps))
        assert sum(res.per_pair_terms.values()) == pytest.approx(res.value, abs=1e-12)
        assert set(res.per_pair_terms) == {(0, 1), (0, 2), (1, 2)}
        # the LP's simplex iterations pass through
        lp_res = mmot(ps, transport._summed_cost(ps, euclidean_pairwise(ps)))
        assert res.iterations == lp_res.iterations > 0

    def test_over_the_cap_refused_before_the_cost_is_summed(self):
        # 8 marginals of 8 atoms: 8 ** 8 = 16,777,216 cells, a 128 MiB summed cost
        ps = [DiscreteDistribution(np.arange(8.0), np.full(8, 0.125)) for _ in range(8)]
        costs = PairwiseCost({pair: np.ones((8, 8)) for pair in combinations(range(8), 2)})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="a coupling tensor needs 16777216 cells"):
                pairwise_mmot(ps, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_lower_bound_holds(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            ps = [random_planar(rng) for _ in range(3)]
            d = euclidean_pairwise(ps)
            lb = sum(wasserstein(ps[s], ps[t], d.get(s, t)).value
                     for s, t in combinations(range(3), 2))
            assert lb <= pairwise_mmot(ps, d).value + 1e-9

    def test_identical_marginals_cost_zero(self):
        rng = np.random.default_rng(45)
        p = random_planar(rng)
        ps = [p, p, p]
        assert pairwise_mmot(ps, euclidean_pairwise(ps)).value == pytest.approx(0.0, abs=1e-10)


def barycenter_oracle(ps, omega, base):
    """Assemble the min-over-meeting-point cost tensor by loops, then solve."""
    idx_of = index_maps_oracle([p.atoms for p in ps], omega)
    shape = tuple(p.size for p in ps)
    cost = np.zeros(shape)
    for idx in np.ndindex(*shape):
        cost[idx] = min(
            sum(base[idx_of[s][idx[s]], w] for s in range(len(ps))) for w in range(len(omega))
        )
    return mmot(ps, cost, ell=1).value


class TestBarycenterMMOT:
    def test_matches_explicit_cost_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            pts = rng.uniform(-1, 1, size=(5, 2))
            omega = pts
            base = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            ps = []
            for _ in range(3):
                chosen = rng.choice(5, size=2, replace=False)
                m = rng.uniform(0.2, 1.0, size=2)
                m /= m.sum()
                ps.append(DiscreteDistribution(omega[chosen], m))
            got = barycenter_mmot(ps, omega, base).value
            assert got == pytest.approx(barycenter_oracle(ps, omega, base), abs=1e-10)

    def test_two_point_hand_value(self):
        # two unit masses at 0 and 1 with midpoint available: both meet at
        # any of the three sites; cheapest total is 1 (0.5 + 0.5 via mid)
        omega = np.array([0.0, 1.0, 0.5])
        base = np.abs(omega[:, None] - omega[None, :])
        p = DiscreteDistribution(omega[:1], [1.0])
        q = DiscreteDistribution(omega[1:2], [1.0])
        assert barycenter_mmot([p, q], omega, base).value == pytest.approx(1.0, abs=1e-12)

    def test_atom_outside_omega_rejected(self):
        omega = [0.0, 1.0]
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = DiscreteDistribution([0.5], [1.0])
        q = DiscreteDistribution([1.0], [1.0])
        with pytest.raises(ValueError, match="Omega"):
            barycenter_mmot([p, q], omega, base)


class TestPairTriangle:
    def test_pair_values_satisfy_triangle_bound(self):
        # for any joint coupling, rooted pair costs obey the triangle bound
        rng = np.random.default_rng(61)
        for _ in range(20):
            sizes = rng.integers(2, 4, size=3)
            raw = rng.uniform(0.05, 1.0, size=tuple(sizes))
            joint = JointMass(raw / raw.sum())
            ps = [random_planar_support(rng, m) for m in sizes]
            costs = {
                (s, t): euclidean_cost(ps[s], ps[t]) for s, t in combinations(range(3), 2)
            }
            for ell in (1, 2, 3):
                w = {}
                for s, t in combinations(range(3), 2):
                    pair = marginal(joint, [s, t]).entries
                    w[(s, t)] = braket(costs[(s, t)], pair, ell) ** (1.0 / ell)
                for (i, j, k) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
                    wij = w[(min(i, j), max(i, j))]
                    wik = w[(min(i, k), max(i, k))]
                    wkj = w[(min(k, j), max(k, j))]
                    assert wij <= wik + wkj + 1e-9


def random_planar_support(rng, m):
    pts = rng.uniform(-1, 1, size=(int(m), 2))
    mass = rng.uniform(0.1, 1.0, size=int(m))
    mass /= mass.sum()
    return DiscreteDistribution(pts, mass)
