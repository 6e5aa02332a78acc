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
from mmot import clustering
from mmot.clustering import _confusion
from mmot.metric_props import SENTINEL, DistanceTensor

from dict_tensor import build_hypergraph_oracle, default_grid_oracle, random_pairs


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


def hypergraph(n, hyperedges):
    """Hypergraph3 from the tuple form ((i, j, k), weight), ..."""
    edges = np.array([e for e, _ in hyperedges], dtype=np.int64).reshape(-1, 3)
    return Hypergraph3(n, edges, np.array([w for _, w in hyperedges], dtype=float))


def clique_adjacency_oracle(h):
    """TTM's clique adjacency, one hyperedge and one pair at a time."""
    aff = clustering._affinities(h.weights)
    A = np.zeros((h.n, h.n))
    for (i, j, kk), a in zip(h.edges.tolist(), aff):
        for u, v in ((i, j), (i, kk), (j, kk)):
            A[u, v] += a
            A[v, u] += a
    return A


def incidence_oracle(h):
    """NH-Cut's n x m incidence matrix, one column at a time."""
    H = np.zeros((h.n, h.num_edges))
    for col, (i, j, kk) in enumerate(h.edges.tolist()):
        H[[i, j, kk], col] = 1.0
    return H


def pair_affinity_oracle(D):
    """spectral_cluster's pair affinities, one pair at a time."""
    finite = {key: v for key, v in D.values.items() if v < SENTINEL}
    A = np.zeros((D.size, D.size))
    aff = clustering._affinities(np.array([v for _, v in sorted(finite.items())]))
    for ((i, j), _), a in zip(sorted(finite.items()), aff):
        A[i, j] = A[j, i] = a
    return A


def hypergraph_validation_oracle(n, hyperedges):
    """Hypergraph3's checks edge by edge; the message of the first failure."""
    seen = set()
    for (i, j, k), w in hyperedges:
        if not 0 <= i < j < k < n:
            return f"hyperedge {(i, j, k)} not strictly increasing in range"
        if (i, j, k) in seen:
            return f"duplicate hyperedge {(i, j, k)}"
        seen.add((i, j, k))
        if not (np.isfinite(w) and w >= 0.0):
            return f"hyperedge {(i, j, k)} has invalid weight {w}"
    return None


def random_hypergraph(n, m, rng):
    """m distinct triples with full-mantissa weights, in random order."""
    triples = list(combinations(range(n), 3))
    pick = rng.choice(len(triples), size=m, replace=False)
    return hypergraph(n, tuple((triples[t], float(rng.uniform(0.0, 4.0))) for t in pick))


def spectral_inputs(monkeypatch, method, *args):
    """The (M, d, support) a clusterer hands to the shared spectral step."""
    seen = []
    monkeypatch.setattr(clustering, "_spectral_labels",
                        lambda M, d, support, *rest, **kw: seen.append((M, d, support)))
    method(*args, rng=np.random.default_rng(0))
    return seen[0]


class TestOperatorOracles:
    @pytest.mark.parametrize("n,m", [(6, 4), (9, 60), (12, 200), (20, 1000)])
    def test_ttm_adjacency_matches_loop(self, monkeypatch, n, m):
        for seed in range(3):
            h = random_hypergraph(n, m, np.random.default_rng(seed))
            A = clique_adjacency_oracle(h)
            M, d, support = spectral_inputs(monkeypatch, ttm, h, 2)
            np.testing.assert_array_equal(M, A, strict=True)
            np.testing.assert_array_equal(d, A.sum(axis=1))
            np.testing.assert_array_equal(support, A > 0.0)

    @pytest.mark.parametrize("n,m", [(6, 4), (9, 60), (12, 200), (20, 1000)])
    def test_nhcut_incidence_matches_loop(self, monkeypatch, n, m):
        for seed in range(3):
            h = random_hypergraph(n, m, np.random.default_rng(seed))
            H = incidence_oracle(h)
            w = clustering._affinities(h.weights)
            M, d, support = spectral_inputs(monkeypatch, nhcut, h, 2)
            np.testing.assert_array_equal(M, (H * (w / 3.0)[None, :]) @ H.T, strict=True)
            np.testing.assert_array_equal(d, H @ w)
            np.testing.assert_array_equal(support, (H @ H.T) > 0.0)

    @pytest.mark.parametrize("p_sampled", [1.0, 0.6])
    def test_spectral_affinity_matches_loop(self, monkeypatch, p_sampled):
        rng = np.random.default_rng(8)
        D = DistanceTensor(2, 14)
        for key in combinations(range(D.size), 2):
            if rng.random() < p_sampled:
                D.set(key, float(rng.uniform(0.0, 3.0)))
        M, _, _ = spectral_inputs(monkeypatch, spectral_cluster, D, 2)
        np.testing.assert_array_equal(M, pair_affinity_oracle(D), strict=True)


class TestKMeans:
    def test_two_blob_split(self):
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        sol = kmeans(pts, 2, rng=np.random.default_rng(0))
        a = set(sol.labels[:3])
        b = set(sol.labels[3:])
        assert len(a) == 1 and len(b) == 1 and a != b

    def test_k_equals_one(self):
        pts = np.random.default_rng(1).normal(size=(5, 2))
        sol = kmeans(pts, 1, rng=np.random.default_rng(0))
        assert set(sol.labels) == {0}

    def test_matches_exhaustive_inertia(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(9, 2))
        sol = kmeans(pts, 3, rng=np.random.default_rng(0))
        got = inertia_of(pts, sol.labels, 3)
        want = kmeans_inertia_oracle(pts, 3)
        assert got == pytest.approx(want, rel=1e-9)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 1)), 3, rng=np.random.default_rng(0))

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
        assert h.edges.tolist() == [[0, 1, 2], [3, 4, 5]]
        h_all = build_hypergraph(T, threshold=100.0)
        assert h_all.num_edges == 20

    def test_empty_selection_rejected(self):
        T, _ = block_tensor([2, 2])
        with pytest.raises(ValueError):
            build_hypergraph(T, threshold=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hypergraph(3, ((((0, 0, 1)), 1.0),))
        with pytest.raises(ValueError):
            hypergraph(3, (((0, 1, 2), -1.0),))
        with pytest.raises(ValueError, match="one weight per hyperedge"):
            Hypergraph3(3, np.array([[0, 1, 2]]), np.ones(2))

    @pytest.mark.parametrize("edges,named", [
        ((((0, 1, 2), 1.0), ((1, 2, 5), 1.0)), r"\(1, 2, 5\) not strictly increasing"),
        ((((0, 1, 2), 1.0), ((-1, 1, 2), 1.0)), r"\(-1, 1, 2\) not strictly increasing"),
        ((((0, 1, 3), 1.0), ((0, 1, 2), 2.0), ((0, 1, 3), 1.0)), r"duplicate hyperedge \(0, 1, 3\)"),
        ((((0, 1, 2), 1.0), ((1, 2, 3), float("nan"))), r"\(1, 2, 3\) has invalid weight nan"),
        ((((0, 1, 2), float("inf")),), r"\(0, 1, 2\) has invalid weight inf"),
        # the first bad hyperedge is named, whatever its fault
        ((((0, 1, 2), -2.0), ((0, 1, 9), 1.0)), r"\(0, 1, 2\) has invalid weight -2.0"),
        ((((0, 1, 2), 1.0), ((0, 1, 2), 1.0), ((0, 1, 9), 1.0)), r"duplicate hyperedge \(0, 1, 2\)"),
    ])
    def test_validation_names_the_first_bad_edge(self, edges, named):
        with pytest.raises(ValueError, match=named) as err:
            hypergraph(5, edges)
        assert str(err.value) == hypergraph_validation_oracle(5, edges)

    def test_hyperedges_need_three_vertices(self):
        for width in (2, 4):
            with pytest.raises(ValueError, match="three vertices"):
                Hypergraph3(9, np.arange(2 * width).reshape(2, width), np.ones(2))

    def test_validation_matches_edge_by_edge_scan(self):
        rng = np.random.default_rng(13)
        triples = list(combinations(range(5), 3)) + [(0, 0, 1), (2, 1, 3), (0, 1, 5), (-1, 0, 1)]
        p_triple = [0.09] * 10 + [0.025] * 4
        weights = [1.0, 0.0, -1.0, np.nan, np.inf]
        faults = set()
        for _ in range(300):
            edges = tuple((triples[rng.choice(len(triples), p=p_triple)],
                           float(rng.choice(weights, p=[0.8, 0.05, 0.05, 0.05, 0.05])))
                          for _ in range(int(rng.integers(1, 7))))
            want = hypergraph_validation_oracle(5, edges)
            faults.add(want and next(k for k in ("range", "duplicate", "weight") if k in want))
            if want is None:
                assert hypergraph(5, edges).num_edges == len(edges)
            else:
                with pytest.raises(ValueError) as err:
                    hypergraph(5, edges)
                assert str(err.value) == want
        # valid inputs and every kind of fault came up
        assert faults == {None, "range", "duplicate", "weight"}


class TestDenseMatchesDictOracle:
    """build_hypergraph and the default grid read the dense tensor exactly as the dict one."""

    @staticmethod
    def default_grid(T):
        seen = []

        def record(tensor, th):
            seen.append(th)
            raise ValueError("recorded")

        with pytest.raises(ValueError, match="no feasible threshold"):
            tune_threshold(T, [0] * T.size, record)
        return seen

    def test_default_grid(self):
        for T, ref in random_pairs():
            assert self.default_grid(T) == default_grid_oracle(ref)

    def test_edges_at_every_default_gridpoint(self):
        survived = 0
        for T, ref in random_pairs():
            grid = default_grid_oracle(ref)
            # below every value nothing survives
            for th in [-1.0] + grid:
                try:
                    want = build_hypergraph_oracle(ref, th)
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        build_hypergraph(T, th)
                    assert str(err.value) == str(exc)
                    continue
                h = build_hypergraph(T, th)
                assert h.n == ref.size
                assert h.edges.tolist() == [list(key) for key, _ in want]
                assert h.weights.tolist() == [w for _, w in want]
                survived += h.num_edges
        assert survived > 0


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
        h = hypergraph(6, (((0, 1, 2), 1.0), ((2, 3, 4), 1.0)))
        with pytest.raises(ValueError, match="5"):
            method(h, 2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("method", [ttm, nhcut])
    def test_too_many_components_rejected(self, method):
        # three components but k=2
        h = hypergraph(9, (((0, 1, 2), 1.0), ((3, 4, 5), 1.0), ((6, 7, 8), 1.0)))
        with pytest.raises(ValueError, match="component"):
            method(h, 2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("method", [ttm, nhcut])
    def test_components_equal_k_is_fine(self, method):
        h = hypergraph(6, (((0, 1, 2), 1.0), ((3, 4, 5), 1.0)))
        sol = method(h, 2, rng=np.random.default_rng(0))
        assert clustering_error(sol.labels, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_k_must_be_at_least_two(self):
        h = hypergraph(3, (((0, 1, 2), 1.0),))
        with pytest.raises(ValueError):
            ttm(h, 1, rng=np.random.default_rng(0))


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
            spectral_cluster(T, 2, rng=np.random.default_rng(0))


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
