"""The one atom-identity rule against the `Atom` loops it replaced.

Supports are drawn on a coarse grid and nudged by 0, +-0.5, +-1 and +-2
ATOM_TOL per coordinate, so atoms that coincide inside, exactly at, and
just past the tolerance all occur, as do tolerance chains (a~b, b~c,
a!~c).  Every comparison is `==` against the loops in `atom_oracle`.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from mmot.constructions import triangle_area_cost
from mmot.core import ATOM_TOL, DiscreteDistribution, distinct_atoms, same_atoms
from mmot.experiments import _tuple_distance, signature_distribution
from mmot.graphs import complete, cycle, grid2d_periodic, signature
from mmot.metric_props import check_metric, check_n_metric_cost
from mmot.transport import _omega_index, barycenter_mmot

import atom_oracle as oracle

NUDGES = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]) * ATOM_TOL
# a~b and b~c exactly at the tolerance, a!~c; the half steps chain further
CHAIN = np.array([0.0, 1.0, 2.0]) * ATOM_TOL
HALF_CHAIN = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]) * ATOM_TOL


def nudged(rng, m, d):
    """m rows in d dimensions: grid points 0, 0.5, 1 plus a tolerance-scale nudge."""
    base = rng.integers(0, 3, size=(m, d)) * 0.5
    return base + rng.choice(NUDGES, size=(m, d))


def distinct_support(rng, m, d):
    """A support whose rows are pairwise distinct, still near-tolerance."""
    return distinct_atoms(nudged(rng, m, d))[0]


def uniform(atoms):
    return DiscreteDistribution(atoms, np.full(len(atoms), 1.0 / len(atoms)))


def chains():
    """Every ordering of the two chains, as real and as planar supports."""
    for chain in (CHAIN, HALF_CHAIN):
        for order in permutations(range(len(chain))):
            pts = chain[list(order)]
            yield pts
            yield np.column_stack([pts, np.full(len(pts), 0.5)])


def random_supports(seed, n_cases=200):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        yield nudged(rng, int(rng.integers(1, 9)), int(rng.integers(1, 3)))


class TestSameAtoms:
    def test_matches_atom_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            a = nudged(rng, int(rng.integers(1, 6)), d)
            b = nudged(rng, int(rng.integers(1, 6)), d)
            want = [[x == y for y in oracle.as_atoms(b)] for x in oracle.as_atoms(a)]
            assert same_atoms(a, b).tolist() == want

    def test_tolerance_is_inclusive(self):
        got = same_atoms([0.0], [0.5 * ATOM_TOL, ATOM_TOL, 2 * ATOM_TOL])
        assert got.tolist() == [[True, True, False]]
        assert [oracle.Atom.real(0.0) == oracle.Atom.real(x)
                for x in (0.5 * ATOM_TOL, ATOM_TOL, 2 * ATOM_TOL)] == [True, True, False]

    def test_every_coordinate_must_agree(self):
        got = same_atoms([[0.0, 0.0]], [[ATOM_TOL, ATOM_TOL], [ATOM_TOL, 2 * ATOM_TOL]])
        assert got.tolist() == [[True, False]]

    def test_one_dimensional_input_is_real_atoms(self):
        assert same_atoms([0.0, 1.0], [[1.0], [0.0]]).tolist() == [[False, True], [True, False]]

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensions differ: 1 vs 2"):
            same_atoms(np.zeros((3, 1)), np.zeros((2, 2)))


class TestDistinctness:
    @pytest.mark.parametrize("seed", [2, 3])
    def test_error_names_the_loops_first_pair(self, seed):
        raised = 0
        for pts in list(random_supports(seed)) + list(chains()):
            clash = oracle.first_clash(pts)
            masses = np.full(len(pts), 1.0 / len(pts))
            if clash is None:
                dist = DiscreteDistribution(pts, masses)
                assert np.array_equal(dist.atoms, oracle.coords(oracle.as_atoms(pts)))
            else:
                s, t = clash
                msg = f"atoms {s} and {t} coincide; atoms must be pairwise distinct"
                with pytest.raises(ValueError) as info:
                    DiscreteDistribution(pts, masses)
                assert str(info.value) == msg
                raised += 1
        assert raised > 50

    def test_atoms_are_a_read_only_copy(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        dist = uniform(pts)
        pts[0, 0] = 5.0
        assert dist.atoms[0, 0] == 0.0
        assert not dist.atoms.flags.writeable
        assert uniform([0.0, 1.0]).atoms.shape == (2, 1)


class TestDistinctAtoms:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_first_match_loop(self, seed):
        for pts in list(random_supports(seed)) + list(chains()):
            kept, owners = distinct_atoms(pts)
            want_kept, want_owners = oracle.dedupe(pts)
            assert owners.tolist() == want_owners
            assert np.array_equal(kept, oracle.coords(want_kept))

    def test_rows_join_kept_atoms_only(self):
        # b joins a; c is near b but not a, and b is not kept, so c is new
        kept, owners = distinct_atoms(CHAIN)
        assert owners.tolist() == [0, 0, 1]
        assert kept[:, 0].tolist() == [0.0, 2 * ATOM_TOL]
        kept, owners = distinct_atoms(CHAIN[[1, 0, 2]])
        assert owners.tolist() == [0, 0, 0]

    def test_kept_atoms_are_pairwise_distinct(self):
        for pts in random_supports(6):
            kept, _ = distinct_atoms(pts)
            assert not np.triu(same_atoms(kept, kept), 1).any()


class TestSignatureDistribution:
    def test_matches_loop_on_nudged_spectra(self):
        for pts in random_supports(7):
            if pts.shape[1] != 2:
                continue
            values = pts[:, 0] + 1j * pts[:, 1]
            dist = signature_distribution(values)
            atoms, masses = oracle.signature_distribution(values)
            assert np.array_equal(dist.atoms, atoms)
            assert np.array_equal(dist.masses, masses)

    @pytest.mark.parametrize("graph", [cycle(3), complete(5), grid2d_periodic(3, 4)])
    def test_matches_loop_on_graph_spectra(self, graph):
        values = signature(graph, top_k=16)
        dist = signature_distribution(values)
        atoms, masses = oracle.signature_distribution(values)
        assert np.array_equal(dist.atoms, atoms)
        assert np.array_equal(dist.masses, masses)


class TestOmega:
    def test_union_and_index_maps_match_loops(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            supports = [distinct_support(rng, int(rng.integers(1, 5)), d) for _ in range(3)]
            omega, _ = distinct_atoms(np.concatenate(supports))
            assert np.array_equal(omega, oracle.omega_union(supports))
            want = oracle.index_maps(supports, omega)
            assert [_omega_index(s, omega).tolist() for s in supports] == want

    def test_missing_atoms_raise_like_the_loop(self):
        rng = np.random.default_rng(9)
        missed = 0
        for _ in range(100):
            d = int(rng.integers(1, 3))
            support = distinct_support(rng, int(rng.integers(1, 5)), d)
            omega = distinct_support(rng, int(rng.integers(1, 5)), d)
            try:
                want = oracle.index_maps([support], omega)[0]
            except ValueError:
                missed += 1
                with pytest.raises(ValueError, match="is not in Omega"):
                    _omega_index(support, omega)
            else:
                assert _omega_index(support, omega).tolist() == want
        assert missed > 20

    def test_barycenter_backend_uses_the_union(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            ps = [uniform(distinct_support(rng, int(rng.integers(1, 4)), 2)) for _ in range(3)]
            omega = oracle.omega_union([p.atoms for p in ps])
            base = np.linalg.norm(omega[:, None, :] - omega[None, :, :], axis=2)
            want = barycenter_mmot(ps, omega, base).value
            assert _tuple_distance("mmot_barycenter", ps, 1) == want


class TestTriangleAreaCost:
    @pytest.mark.parametrize("gamma", [None, 0.3])
    def test_matches_pairwise_equality_loops(self, gamma):
        rng = np.random.default_rng(11)
        for _ in range(100):
            supports = [nudged(rng, int(rng.integers(1, 5)), 2) for _ in range(3)]
            got = triangle_area_cost(supports, gamma)
            assert np.array_equal(got, oracle.triangle_area_cost(supports, gamma))

    def test_chain_counts_each_coincidence(self):
        chain = np.column_stack([CHAIN, np.zeros(3)])
        got = triangle_area_cost([chain] * 3, 0.25)
        assert np.array_equal(got, oracle.triangle_area_cost([chain] * 3, 0.25))
        # a~b, b~c, a!~c: two of three pairs coincide, so gamma, not 0
        assert got[0, 1, 2] == 0.25


class TestIdentityAudits:
    def test_check_metric_matches_loop(self):
        rng = np.random.default_rng(12)
        flagged = 0
        for _ in range(60):
            d_dim = int(rng.integers(1, 3))
            supports = [nudged(rng, int(rng.integers(1, 5)), d_dim) for _ in range(3)]
            d = {}
            for i, j in list(combinations(range(3), 2)) + [(0, 0), (2, 2)]:
                diff = supports[i][:, None, :] - supports[j][None, :, :]
                cost = np.sqrt((diff ** 2).sum(axis=2))
                cost[rng.random(cost.shape) < 0.2] = 0.0
                d[(i, j)] = cost
            rep = check_metric(d, supports)
            assert rep == oracle.check_metric(d, supports)
            flagged += not rep.identity
        assert flagged > 10

    def test_check_metric_rejects_a_support_of_the_wrong_size(self):
        # a (1, k) mask would broadcast against an (m, k) matrix unnoticed
        supports = [np.zeros((1, 2)), np.ones((2, 2))]
        with pytest.raises(ValueError, match=r"shape \(3, 2\), supports have \(1, 2\)"):
            check_metric({(0, 1): np.ones((3, 2))}, supports)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_check_n_metric_cost_matches_loop(self, n):
        rng = np.random.default_rng(13 + n)
        flagged = 0
        for pts in list(random_supports(20 + n, n_cases=40)) + list(chains())[:8]:
            m = len(pts)
            cost = rng.random((m,) * n)
            cost[rng.random(cost.shape) < 0.3] = 0.0
            cost[(np.arange(m),) * n] = 0.0
            rep = check_n_metric_cost(cost, pts)
            got = [v for v in rep.violations if v["kind"] == "identity"]
            want = oracle.n_metric_identity(cost, pts)
            assert got == want
            assert rep.identity == (not want)
            flagged += bool(want)
        assert flagged > 10
