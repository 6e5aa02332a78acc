"""Clustering pipeline: hypergraphs, spectral methods, k-means, error metric."""

from itertools import combinations, permutations, product

import numpy as np
import pytest

from mmot.clustering import (
    ClusteringSolution,
    Hypergraph3,
    build_hypergraph,
    clustering_error,
    kmeans,
    nhcut,
    spectral_cluster,
    ttm,
    tune_threshold,
)
from mmot.clustering import _confusion
from mmot.metric_props import DistanceTensor


def best_matches_oracle(conf):
    """Most matched points over every relabeling, by brute force."""
    k = conf.shape[0]
    return max(sum(conf[a, perm[a]] for a in range(k)) for perm in permutations(range(k)))


def kmeans_inertia_oracle(points, k):
    """Exhaustive minimum inertia over every label assignment."""
    n = len(points)
    best = np.inf
    for labels in product(range(k), repeat=n):
        total = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if labels[i] == c]]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def inertia_of(points, labels, k):
    total = 0.0
    for c in range(k):
        members = points[[i for i in range(len(points)) if labels[i] == c]]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def block_tensor(sizes, inner=0.1, outer=5.0, seed=0):
    """Order-3 tensor where within-cluster triples are cheap."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    rng = np.random.default_rng(seed)
    T = DistanceTensor(3, n)
    for i, j, k in combinations(range(n), 3):
        same = labels[i] == labels[j] == labels[k]
        base = inner if same else outer
        T.set((i, j, k), base * (1.0 + 0.01 * rng.random()))
    return T, labels


class TestKMeans:
    def test_two_blob_split(self):
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        sol = kmeans(pts, 2, rng=np.random.default_rng(0))
        a = set(sol.labels[:3])
        b = set(sol.labels[3:])
        assert len(a) == 1 and len(b) == 1 and a != b

    def test_k_equals_one(self):
        pts = np.random.default_rng(1).normal(size=(5, 2))
        sol = kmeans(pts, 1)
        assert set(sol.labels) == {0}

    def test_matches_exhaustive_inertia(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(9, 2))
        sol = kmeans(pts, 3, rng=np.random.default_rng(0), restarts=20)
        got = inertia_of(pts, sol.labels, 3)
        want = kmeans_inertia_oracle(pts, 3)
        assert got == pytest.approx(want, rel=1e-9)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 1)), 3)

    def test_seeded_determinism(self):
        pts = np.random.default_rng(3).normal(size=(20, 2))
        a = kmeans(pts, 4, rng=np.random.default_rng(11))
        b = kmeans(pts, 4, rng=np.random.default_rng(11))
        assert a.labels == b.labels


class TestClusteringError:
    def test_identical_and_permuted(self):
        truth = [0, 0, 1, 1, 2, 2]
        assert clustering_error(truth, truth) == 0.0
        swapped = [2, 2, 0, 0, 1, 1]
        assert clustering_error(swapped, truth) == 0.0

    def test_single_mismatch(self):
        truth = [0, 0, 0, 1, 1, 1]
        pred = [0, 0, 1, 1, 1, 1]
        assert clustering_error(pred, truth) == pytest.approx(1 / 6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clustering_error([0, 1], [0, 1, 2])

    def test_hungarian_agrees_with_brute_force(self):
        rng = np.random.default_rng(55)
        for k in range(2, 9):
            for _ in range(4):
                n = int(rng.integers(6, 30))
                pred = rng.integers(0, k, size=n)
                truth = rng.integers(0, k, size=n)
                matched = best_matches_oracle(_confusion(pred, truth, k))
                assert clustering_error(pred, truth) == 1.0 - matched / n

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(56)
        truth = rng.integers(0, 4, size=25)
        pred = rng.integers(0, 4, size=25)
        e1 = clustering_error(pred, truth)
        sigma = list(np.random.default_rng(0).permutation(4))
        e2 = clustering_error([sigma[p] for p in pred], truth)
        assert e1 == e2


class TestHypergraph:
    def test_build_filters_by_threshold(self):
        T, labels = block_tensor([3, 3])
        # tight threshold keeps only the two all-inside triples
        h = build_hypergraph(T, threshold=1.0)
        assert h.n == 6
        assert {e for e, _ in h.hyperedges} == {(0, 1, 2), (3, 4, 5)}
        h_all = build_hypergraph(T, threshold=100.0)
        assert len(h_all.hyperedges) == 20

    def test_empty_selection_rejected(self):
        T, _ = block_tensor([2, 2])
        with pytest.raises(ValueError):
            build_hypergraph(T, threshold=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph3(3, ((((0, 0, 1)), 1.0),))
        with pytest.raises(ValueError):
            Hypergraph3(3, (((0, 1, 2), -1.0),))


class TestTTMAndNHCut:
    @pytest.mark.parametrize("method", [ttm, nhcut])
    def test_recovers_planted_blocks(self, method):
        T, labels = block_tensor([4, 4, 4], seed=2)
        h = build_hypergraph(T, threshold=100.0)
        sol = method(h, 3, rng=np.random.default_rng(0))
        assert clustering_error(sol.labels, labels) == 0.0

    @pytest.mark.parametrize("method", [ttm, nhcut])
    def test_isolated_vertex_named_in_error(self, method):
        # vertex 5 appears in no hyperedge
        h = Hypergraph3(6, (((0, 1, 2), 1.0), ((2, 3, 4), 1.0)))
        with pytest.raises(ValueError, match="5"):
            method(h, 2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("method", [ttm, nhcut])
    def test_too_many_components_rejected(self, method):
        # three components but k=2
        h = Hypergraph3(9, (((0, 1, 2), 1.0), ((3, 4, 5), 1.0), ((6, 7, 8), 1.0)))
        with pytest.raises(ValueError, match="component"):
            method(h, 2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("method", [ttm, nhcut])
    def test_components_equal_k_is_fine(self, method):
        h = Hypergraph3(6, (((0, 1, 2), 1.0), ((3, 4, 5), 1.0)))
        sol = method(h, 2, rng=np.random.default_rng(0))
        assert clustering_error(sol.labels, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_k_must_be_at_least_two(self):
        h = Hypergraph3(3, (((0, 1, 2), 1.0),))
        with pytest.raises(ValueError):
            ttm(h, 1)


class TestSpectralCluster:
    def test_recovers_blobs_from_pair_tensor(self):
        labels = np.array([0] * 4 + [1] * 4)
        T = DistanceTensor(2, 8)
        rng = np.random.default_rng(4)
        for i, j in combinations(range(8), 2):
            base = 0.1 if labels[i] == labels[j] else 5.0
            T.set((i, j), base * (1 + 0.01 * rng.random()))
        sol = spectral_cluster(T, 2, rng=np.random.default_rng(0))
        assert clustering_error(sol.labels, labels) == 0.0

    def test_requires_order_two(self):
        T, _ = block_tensor([2, 2])
        with pytest.raises(ValueError):
            spectral_cluster(T, 2)


class TestTuneThreshold:
    def cluster_fn(self, T, thr):
        h = build_hypergraph(T, thr)
        return ttm(h, 3, rng=np.random.default_rng(0))

    def test_picks_gridpoint_minimizing_error(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        thr, err = tune_threshold(T, labels, self.cluster_fn, grid=[100.0])
        assert thr == 100.0
        assert err == 0.0

    def test_failing_gridpoints_are_skipped(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        # 0.0 keeps nothing and raises inside; the valid point must win
        thr, err = tune_threshold(T, labels, self.cluster_fn, grid=[0.0, 100.0])
        assert thr == 100.0

    def test_all_gridpoints_failing_propagates(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        with pytest.raises(ValueError):
            tune_threshold(T, labels, self.cluster_fn, grid=[0.0])

    def test_tie_keeps_earliest_gridpoint(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        thr, err = tune_threshold(T, labels, self.cluster_fn, grid=[50.0, 100.0])
        assert thr == 50.0

    def test_default_grid_uses_sampled_quantiles(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        thr, err = tune_threshold(T, labels, self.cluster_fn)
        assert err == 0.0


class TestClusteringSolution:
    def test_json_round_trip(self):
        sol = ClusteringSolution(labels=(0, 1, 0), k=2)
        assert sol.as_array().tolist() == [0, 1, 0]
        assert "labels" in sol.to_json()

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ClusteringSolution(labels=(0, 2), k=2)
