"""Planar violation instance and the collinear ratio-bound family."""

import numpy as np
import pytest

from mmot.constructions import collinear_instance, planar_counterexample, triangle_area_cost
from mmot.metric_props import check_metric, check_n_metric_cost
from mmot.transport import mmot, pairwise_mmot

from atom_oracle import as_atoms
from dict_tensor import leave_one_out_ratios


def triangle_area_cost_oracle(points, gamma):
    """Cell-by-cell build over one shared point list."""
    points = as_atoms(points)
    m = len(points)
    coords = [p.coords() for p in points]
    cost = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                ab = points[a] == points[b]
                ac = points[a] == points[c]
                bc = points[b] == points[c]
                if ab and ac:
                    cost[a, b, c] = 0.0
                elif ab or ac or bc:
                    cost[a, b, c] = gamma
                else:
                    p, q, r = coords[a], coords[b], coords[c]
                    cost[a, b, c] = 0.5 * abs((q[0] - p[0]) * (r[1] - p[1])
                                              - (q[1] - p[1]) * (r[0] - p[0]))
    return cost


class TestTriangleAreaCost:
    def test_hand_values(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cost = triangle_area_cost([pts] * 3, gamma=0.01)
        assert cost[0, 1, 2] == pytest.approx(0.5, abs=1e-15)
        assert cost[0, 0, 0] == 0.0
        assert cost[0, 0, 1] == 0.01
        assert cost[0, 1, 1] == 0.01

    def test_symmetric_in_all_arguments(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(4, 2))
        cost = triangle_area_cost([pts] * 3, gamma=0.05)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            np.testing.assert_allclose(cost, np.transpose(cost, perm), atol=1e-15)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            triangle_area_cost([np.zeros((1, 2))] * 3, gamma=0.0)

    def test_matches_cell_by_cell_oracle(self):
        # same arithmetic in the same order, so equal to the last bit
        inst = planar_counterexample(0.01)
        np.testing.assert_array_equal(
            inst.cost(), triangle_area_cost_oracle(inst.points, inst.gamma))

    def test_derived_gamma_is_half_the_smallest_area(self):
        s0 = np.array([[0.0, 0.0], [2.0, 0.0]])
        s1 = np.array([[2.0, 0.0], [0.0, 1.0]])
        s2 = np.array([[0.0, 1.0], [3.0, 3.0]])
        cost = triangle_area_cost([s0, s1, s2], gamma=None)
        # the smallest proper triangle, (0,0)-(2,0)-(0,1), has area 1
        assert cost[0, 0, 0] == 1.0
        assert cost[1, 0, 0] == 0.5  # (2,0) twice
        assert cost[0, 1, 0] == 0.5  # (0,1) twice
        assert cost[1, 1, 1] == 3.5


class TestPlanarCounterexample:
    def test_frozen_values_at_eps_001(self):
        inst = planar_counterexample(0.01)
        assert inst.gamma == pytest.approx(0.0025, abs=1e-15)
        assert inst.w_values[(0, 1, 2)] == pytest.approx(0.5, abs=1e-8)
        assert inst.w_values[(0, 1, 3)] == pytest.approx(0.125, abs=1e-8)
        assert inst.w_values[(0, 2, 3)] == pytest.approx(0.1275, abs=1e-8)
        assert inst.w_values[(1, 2, 3)] == pytest.approx(0.1275, abs=1e-8)
        assert inst.margin == pytest.approx(0.12, abs=1e-8)
        assert inst.margin > 0

    @pytest.mark.parametrize("eps", [0.002, 0.03, 0.1])
    def test_closed_form_tracks_epsilon(self, eps):
        inst = planar_counterexample(eps)
        assert inst.w_values[(0, 1, 2)] == pytest.approx(0.5, abs=1e-8)
        assert inst.w_values[(0, 1, 3)] == pytest.approx(0.125, abs=1e-8)
        assert inst.w_values[(0, 2, 3)] == pytest.approx(0.125 + eps / 4, abs=1e-8)
        assert inst.w_values[(1, 2, 3)] == pytest.approx(0.125 + eps / 4, abs=1e-8)
        assert inst.margin == pytest.approx(0.125 - eps / 2, abs=1e-8)

    def test_values_recompute_from_public_pieces(self):
        inst = planar_counterexample(0.01)
        cost = inst.cost()
        for trip, want in inst.w_values.items():
            sub = cost[np.ix_(*(inst.atom_indices[t] for t in trip))]
            got = mmot([inst.distributions[t] for t in trip], sub, ell=1).value
            assert got == pytest.approx(want, abs=1e-10)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            planar_counterexample(0.0)
        with pytest.raises(ValueError):
            planar_counterexample(0.2)

    def test_cost_failing_the_premise_audit_is_refused(self):
        # gamma = 7.5e-13 falls under the audit's zero tolerance, so the
        # coincidence cells read as zero and the identity property fails
        with pytest.raises(ValueError, match=r"^epsilon 3e-12: triangle-area cost is "
                                             r"not a \(3,1\)-metric: 1512 checks, FAILED"):
            planar_counterexample(3e-12)

    @pytest.mark.parametrize("eps", [4.1e-12, 0.01])
    def test_built_cost_passes_the_premise_audit(self, eps):
        inst = planar_counterexample(eps)
        rep = check_n_metric_cost(inst.cost(), inst.points)
        assert rep.ok
        assert inst.premise == rep  # the report `mmot verify` prints from
        assert inst.margin > 0

    def test_distribution_shapes(self):
        inst = planar_counterexample(0.05)
        assert [p.size for p in inst.distributions] == [1, 1, 2, 2]
        assert len(inst.points) == 6


class TestCollinearInstance:
    def test_pair_structure(self):
        dists, d = collinear_instance(4, 3)
        assert len(dists) == 5
        # near spaces coincide, the far space is 100 away at every rank
        np.testing.assert_allclose(np.diag(d.get(0, 1)), 0.0)
        np.testing.assert_allclose(np.diag(d.get(0, 4)), 100.0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pair_costs_are_a_metric(self, n):
        # the theorem's premise, which `mmot verify` also checks at n = 4
        dists, d = collinear_instance(n, 3)
        rep = check_metric(d, [p.atoms for p in dists])
        assert rep.ok, rep.summary()
        assert rep.n_checked > 0

    def test_leave_one_out_ratio_is_exactly_three_at_n4(self):
        from itertools import combinations

        dists, d = collinear_instance(4, 3)
        values = {}
        for sub in combinations(range(5), 4):
            local = {}
            for a, b in combinations(range(4), 2):
                local[(a, b)] = d.get(sub[a], sub[b])
            from mmot.transport import PairwiseCost

            values[sub] = pairwise_mmot([dists[s] for s in sub], PairwiseCost(local)).value
        ratios = leave_one_out_ratios(values, range(5))
        # dropping the far space costs nothing, so its ratio is skipped and
        # the remaining four are all (0 + 3*300)/300
        assert len(ratios) == 4
        for r in ratios.values():
            assert r == pytest.approx(3.0, abs=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            collinear_instance(2, 3)
        with pytest.raises(ValueError):
            collinear_instance(4, 1)
