"""Clustering pipeline: hypergraphs, spectral methods, k-means, error metric."""

import math
import re
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
    nhcut_embedding,
    spectral_cluster,
    spectral_embedding,
    trial_errors,
    ttm,
    ttm_embedding,
    tune_threshold,
)
from mmot import clustering
from mmot.metric_props import DistanceTensor

import kmeans_oracle
import tuning_oracle
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
    """Hypergraph3 over n objects from the tuple form ((i, j, k), weight), ..."""
    T = DistanceTensor(3, n)
    for key, w in hyperedges:
        T.set(key, w)
    return Hypergraph3(T, math.inf)


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
    entries = sorted(D.values.items())
    A = np.zeros((D.size, D.size))
    aff = clustering._affinities(np.array([v for _, v in entries]))
    for ((i, j), _), a in zip(entries, aff):
        A[i, j] = A[j, i] = a
    return A


def random_hypergraph(n, m, rng):
    """m distinct triples, picked at random, with full-mantissa weights."""
    triples = list(combinations(range(n), 3))
    pick = rng.choice(len(triples), size=m, replace=False)
    return hypergraph(n, tuple((triples[t], float(rng.uniform(0.0, 4.0))) for t in pick))


def spectral_inputs(monkeypatch, embedding, *args):
    """The (M, d, support) an embedding hands to the shared spectral step."""
    seen = []
    monkeypatch.setattr(clustering, "_embedding",
                        lambda M, d, support, *rest, **kw: seen.append((M, d, support)))
    embedding(*args)
    return seen[0]


class TestOperatorOracles:
    @pytest.mark.parametrize("n,m", [(6, 4), (9, 60), (12, 200), (20, 1000)])
    def test_ttm_adjacency_matches_loop(self, monkeypatch, n, m):
        for seed in range(3):
            h = random_hypergraph(n, m, np.random.default_rng(seed))
            A = clique_adjacency_oracle(h)
            M, d, support = spectral_inputs(monkeypatch, ttm_embedding, h, 2)
            np.testing.assert_array_equal(M, A, strict=True)
            np.testing.assert_array_equal(d, A.sum(axis=1))
            np.testing.assert_array_equal(support, A > 0.0)

    @pytest.mark.parametrize("n,m", [(6, 4), (9, 60), (12, 200), (20, 1000)])
    def test_nhcut_incidence_matches_loop(self, monkeypatch, n, m):
        off = ~np.eye(n, dtype=bool)
        for seed in range(3):
            h = random_hypergraph(n, m, np.random.default_rng(seed))
            M, d, support = spectral_inputs(monkeypatch, nhcut_embedding, h, 2)
            # exact: the clique form (A + diag(A 1 / 2)) / 3 of the loop adjacency
            A = clique_adjacency_oracle(h)
            half = A.sum(axis=1) / 2.0
            np.testing.assert_array_equal(M, A / 3.0 + np.diag(half / 3.0), strict=True)
            np.testing.assert_array_equal(d, half, strict=True)
            np.testing.assert_array_equal(support, A > 0.0)
            # the incidence product H diag(w/3) H^T, to a few ulps of its
            # largest entry, since it sums in another order
            H = incidence_oracle(h)
            w = clustering._affinities(h.weights)
            inner = (H * (w / 3.0)[None, :]) @ H.T
            np.testing.assert_allclose(M, inner, rtol=0.0,
                                       atol=4 * np.spacing(np.abs(inner).max()))
            np.testing.assert_allclose(d, H @ w, rtol=0.0,
                                       atol=4 * np.spacing(np.abs(H @ w).max()))
            np.testing.assert_array_equal(support[off], ((H @ H.T) > 0.0)[off])

    # every vertex lies in some hyperedge, so both Laplacians are defined
    @pytest.mark.parametrize("n,m", [(9, 60), (12, 200), (20, 1000), (35, 6545)])
    def test_nhcut_laplacian_is_two_thirds_of_ttm(self, monkeypatch, n, m):
        def laplacian(M, d):
            dinv = 1.0 / np.sqrt(d)
            return np.eye(len(d)) - dinv[:, None] * M * dinv[None, :]

        for seed in range(3):
            h = random_hypergraph(n, m, np.random.default_rng(seed))
            L_ttm = laplacian(*spectral_inputs(monkeypatch, ttm_embedding, h, 2)[:2])
            L_nhcut = laplacian(*spectral_inputs(monkeypatch, nhcut_embedding, h, 2)[:2])
            np.testing.assert_allclose(L_nhcut, 2.0 / 3.0 * L_ttm, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p_sampled", [1.0, 0.6])
    def test_spectral_affinity_matches_loop(self, monkeypatch, p_sampled):
        rng = np.random.default_rng(8)
        D = DistanceTensor(2, 14)
        for key in combinations(range(D.size), 2):
            if rng.random() < p_sampled:
                D.set(key, float(rng.uniform(0.0, 3.0)))
        M, _, _ = spectral_inputs(monkeypatch, spectral_embedding, D, 2)
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


def embedding_with_duplicates(seed, layout="C"):
    """A 35 x 7 embedding whose last 15 rows repeat rows 0..14 exactly.

    Column-major is the layout of the spectral embeddings, whose
    reductions numpy sums in another order than row-major ones.
    """
    pts = np.random.default_rng(seed).normal(size=(35, 7))
    pts[20:] = pts[:15]
    return np.asarray(pts, order=layout)


def assert_matches_loop_oracle(points, k, seed):
    """Every restart, the chosen labels and the generator's end state equal the loop's."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    rng_loop, rng_stack, rng_call = (np.random.default_rng(seed) for _ in range(3))
    runs, best = kmeans_oracle.kmeans_restarts(points, k, rng_loop)
    labels, inertia = clustering._lloyd(pts, clustering._kmeanspp_seeds(pts, k, rng_stack), k)
    assert len(labels) == len(inertia) == len(runs) == clustering.KMEANS_RESTARTS
    for r, (want_labels, want_inertia) in enumerate(runs):
        assert labels[r].tolist() == want_labels.tolist()
        assert inertia[r] == want_inertia
    sol = kmeans(points, k, rng_call)
    assert sol.labels == tuple(runs[best][0].tolist())
    assert rng_call.bit_generator.state == rng_stack.bit_generator.state \
        == rng_loop.bit_generator.state
    return runs


class TestKMeansLoopOracle:
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_embeddings_with_tied_rows(self, seed, k, layout):
        assert_matches_loop_oracle(embedding_with_duplicates(seed, layout), k, seed + 10)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_empty_cluster_repair(self, monkeypatch, layout):
        # three distinct rows and k = 6: seeds repeat, so tied centers leave clusters empty
        pts = np.asarray(np.repeat(np.eye(3, 7), [12, 12, 11], axis=0), order=layout)
        repairs = []
        fill_empty = clustering._fill_empty
        def counted(*args):
            repairs.append(args)
            fill_empty(*args)
        monkeypatch.setattr(clustering, "_fill_empty", counted)
        assert_matches_loop_oracle(pts, 6, 3)
        assert repairs

    @pytest.mark.parametrize("cap", [1, 2])
    def test_iteration_cap(self, monkeypatch, cap):
        pts = embedding_with_duplicates(4, "F")
        uncapped = assert_matches_loop_oracle(pts, 7, 5)
        monkeypatch.setattr(clustering, "KMEANS_MAX_ITER", cap)
        capped = assert_matches_loop_oracle(pts, 7, 5)
        # the cap stopped some restart before its labels settled
        assert [i for _, i in capped] != [i for _, i in uncapped]

    def test_k_one(self):
        assert_matches_loop_oracle(embedding_with_duplicates(5, "F"), 1, 6)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_k_equals_n(self, duplicates):
        pts = (embedding_with_duplicates(6) if duplicates
               else np.random.default_rng(6).normal(size=(35, 7)))
        assert_matches_loop_oracle(pts, 35, 7)

    def test_one_column(self):
        # numpy sums one column pairwise, wider points in order; values
        # spread over six decades make the two orders round apart
        rng = np.random.default_rng(0)
        pts = rng.normal(size=35) * 10 ** rng.uniform(-3, 3, size=35)
        pts[20:] = pts[:15]
        assert_matches_loop_oracle(pts, 3, 9)


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

    @pytest.mark.parametrize("pred, bad", [([1.7, 0, 0, 1], "1.7 at position 0"),
                                           ([-1, 0, 0, 1], "-1 at position 0"),
                                           ([0, 0, np.nan, 1], "nan at position 2")])
    def test_non_integral_or_negative_labels_refused(self, pred, bad):
        # -1 is the corpus's "unlabeled"; it must not wrap to label k - 1
        with pytest.raises(ValueError, match=f"labels must be nonnegative integers, got {bad}"):
            clustering_error(pred, [0, 0, 1, 1])
        with pytest.raises(ValueError, match=f"got {bad}"):
            clustering_error([0, 0, 1, 1], pred)

    def test_integral_floats_and_numpy_integers_are_labels(self):
        truth = [0, 0, 1, 1]
        assert clustering_error([2.0, 2.0, 0.0, 1.0], truth) == 0.25
        assert clustering_error(np.array([1, 1, 0, 0], dtype=np.uint8), truth) == 0.0
        assert clustering_error([np.int64(1), 1, 0, 0], truth) == 0.0
        # the confusion matrix has a row per distinct label, not per value up to the largest
        for big in (20000, 2.0 ** 63, 1e300):
            assert clustering_error([big, 0, 0, 1], truth) == 0.5

    def test_hungarian_agrees_with_brute_force(self):
        rng = np.random.default_rng(55)
        for k in range(2, 9):
            for _ in range(4):
                n = int(rng.integers(6, 30))
                pred = rng.integers(0, k, size=n)
                truth = rng.integers(0, k, size=n)
                conf = np.zeros((k, k), dtype=int)
                np.add.at(conf, (pred, truth), 1)
                matched = best_matches_oracle(conf)
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

    @pytest.mark.parametrize("order", [2, 4])
    def test_only_an_order_3_tensor_has_a_hypergraph(self, order):
        T = DistanceTensor(order, 5)
        T.set(range(order), 1.0)
        for make in (Hypergraph3, build_hypergraph):
            with pytest.raises(ValueError, match=f"^need an order-3 tensor, got order {order}$"):
                make(T, math.inf)


class TestDenseMatchesDictOracle:
    """build_hypergraph and the default grid read the dense tensor exactly as the dict one."""

    @staticmethod
    def default_grid(T):
        seen = []

        def record(tensor, th):
            seen.append(th)
            raise ValueError("recorded")

        with pytest.raises(ValueError, match="no feasible threshold"):
            tune_threshold(T, [0] * T.size, record, 1, [])
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
                    if T.order != 3:
                        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                            Hypergraph3(T, th)
                        continue
                    # the view may be empty; only build_hypergraph refuses it
                    want, views = (), (Hypergraph3(T, th),)
                else:
                    views = (Hypergraph3(T, th), build_hypergraph(T, th))
                for h in views:
                    assert h.n == ref.size
                    assert h.edges.shape == (len(want), 3)
                    assert h.edges.tolist() == [list(key) for key, _ in want]
                    assert h.weights.tolist() == [w for _, w in want]
                survived += len(want)
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
    def test_no_hyperedges_isolates_every_vertex(self, method):
        h = Hypergraph3(DistanceTensor(3, 4), 0.0)
        with pytest.raises(ValueError, match=re.escape("isolated vertices: [0, 1, 2, 3]")):
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
    @staticmethod
    def embed(T, thr):
        return ttm_embedding(build_hypergraph(T, thr), 3)

    def tune(self, T, labels, grid=None):
        return tune_threshold(T, labels, self.embed, 3, [np.random.default_rng(0)], grid)

    def test_picks_gridpoint_minimizing_error(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        assert self.tune(T, labels, grid=[100.0]).best == ((100.0, 0.0),)

    def test_failing_gridpoints_are_skipped(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        # 0.0 keeps nothing and raises inside; the valid point must win
        (thr, err), = self.tune(T, labels, grid=[0.0, 100.0]).best
        assert thr == 100.0

    def test_all_gridpoints_failing_propagates(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        msg = "no feasible threshold in grid: no hyperedges survive threshold 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            tune_threshold(T, labels, self.embed, 3, [rng], grid=[0.0])
        assert rng.bit_generator.state == state

    def test_scoring_error_propagates(self):
        # only a refused embedding skips a gridpoint; a labeling of the wrong
        # length is a bug in the embedding, not an infeasible threshold
        T, labels = block_tensor([4, 4, 4], seed=6)

        def short(tensor, th):
            return np.zeros((tensor.size - 1, 1))

        with pytest.raises(ValueError, match=r"^length mismatch"):
            tune_threshold(T, labels, short, 3, [np.random.default_rng(0)], grid=[50.0, 100.0])

    def test_tie_keeps_earliest_gridpoint(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        (thr, err), = self.tune(T, labels, grid=[50.0, 100.0]).best
        assert thr == 50.0

    def test_default_grid_uses_sampled_quantiles(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        (thr, err), = self.tune(T, labels).best
        assert err == 0.0

    def test_every_gridpoint_records_its_fate(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        tuning = self.tune(T, labels, grid=[0.0, 100.0, 0.0])
        refused = "no hyperedges survive threshold 0.0"
        assert tuning.gridpoints == ((0.0, refused), (100.0, None), (0.0, refused))

    @pytest.mark.parametrize("points,why", [
        (np.zeros((2, 1)), "k=3 exceeds the number of points 2"),
        (np.full((12, 2), np.nan), "points must be a finite 2-d array"),
    ])
    def test_kmeans_refusal_refuses_the_gridpoint(self, points, why):
        T, labels = block_tensor([4, 4, 4], seed=6)

        def embed(tensor, th):
            return points if th == 0.0 else self.embed(tensor, th)

        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^no feasible threshold in grid: {re.escape(why)}$"):
            tune_threshold(T, labels, embed, 3, [rng], grid=[0.0])
        assert rng.bit_generator.state == state
        tuning = tune_threshold(T, labels, embed, 3, [rng], grid=[0.0, 100.0])
        assert tuning.gridpoints == ((0.0, why), (100.0, None))
        assert tuning.best == ((100.0, 0.0),)

    def test_no_generators_still_walks_the_grid(self):
        T, labels = block_tensor([4, 4, 4], seed=6)
        tuning = tune_threshold(T, labels, self.embed, 3, [], grid=[0.0, 100.0])
        assert tuning.best == ()
        assert [why is None for _, why in tuning.gridpoints] == [False, True]


HYPERGRAPH_METHODS = [(ttm, ttm_embedding), (nhcut, nhcut_embedding)]


def seeded_generators(seed, trials):
    return [np.random.default_rng([seed, t]) for t in range(trials)]


def tune_each_trial_alone(T, truth, method, k, rngs, grid):
    """The oracle's (threshold, error) per generator, or its message when none is usable."""
    out = []
    for rng in rngs:
        def clusterer(tensor, th, rng=rng):
            return method(build_hypergraph(tensor, th), k, rng)
        try:
            out.append(tuning_oracle.tune_threshold(T, truth, clusterer, grid))
        except ValueError as exc:
            out.append(str(exc))
    return out


class TestTuneThresholdMatchesPerTrialOracle:
    """One pass over the grid equals every trial tuned alone with its own generator."""

    def check(self, T, truth, methods, grid=None, trials=6, seed=0):
        """Both tunings agree per trial, generator state included; returns the one pass."""
        method, embedding = methods
        k = len(set(truth))
        oracle_rngs = seeded_generators(seed, trials)
        want = tune_each_trial_alone(T, truth, method, k, oracle_rngs, grid)
        rngs = seeded_generators(seed, trials)

        def embed(tensor, th):
            return embedding(build_hypergraph(tensor, th), k)

        try:
            tuning = tune_threshold(T, truth, embed, k, rngs, grid)
        except ValueError as exc:
            assert want == [str(exc)] * trials
            tuning = None
        else:
            assert list(tuning.best) == want
        for got, ref in zip(rngs, oracle_rngs, strict=True):
            assert got.bit_generator.state == ref.bit_generator.state
        return tuning

    @pytest.mark.parametrize("methods", HYPERGRAPH_METHODS)
    def test_block_tensors_with_refused_gridpoints(self, methods):
        refusals = set()
        for seed in range(3):
            T, labels = block_tensor([4, 4, 4], seed=seed)
            inner = np.sort(T.sampled_entries()[1])[:12]
            # nothing survives; part of each block (isolated vertices); every
            # block (3 components); then more and more cross-block triples
            grid = [0.05, float(inner[1]), 0.2, 5.02, 5.04, 100.0]
            two = np.minimum(labels, 1)
            for truth in (labels, two):
                tuning = self.check(T, truth, methods, grid, seed=seed)
                refusals.update(why.split(" ")[0] for _, why in tuning.gridpoints if why)
        assert refusals == {"no", "isolated", "affinity"}

    @pytest.mark.parametrize("methods", HYPERGRAPH_METHODS)
    @pytest.mark.parametrize("p_sampled", [0.35, 0.15])
    def test_random_tensors_on_the_default_grid(self, methods, p_sampled):
        fates = []
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            T = DistanceTensor(3, 12)
            for key in combinations(range(12), 3):
                if rng.random() < p_sampled:
                    T.set(key, float(rng.uniform(0.0, 4.0)))
            truth = rng.permutation(np.arange(12) % 3)
            tuning = self.check(T, truth, methods, seed=seed)
            fates.extend(why is None for _, why in tuning.gridpoints)
        assert any(fates) and not all(fates)

    @pytest.mark.parametrize("methods", HYPERGRAPH_METHODS)
    def test_repeated_gridpoints(self, methods):
        T, labels = block_tensor([4, 4, 4], seed=1)
        grid = [5.03, 0.2, 5.03, 100.0, 0.0, 0.2, 100.0, 5.03]
        tuning = self.check(T, np.minimum(labels, 1), methods, grid, trials=8)
        assert [why is None for _, why in tuning.gridpoints] == [
            True, False, True, True, False, False, True, True]

    @pytest.mark.parametrize("methods", HYPERGRAPH_METHODS)
    @pytest.mark.parametrize("grid", [[0.0, 0.05], [0.2, 0.0, 0.2]])
    def test_all_refused_grid_gives_the_same_message(self, methods, grid):
        T, labels = block_tensor([4, 4, 4], seed=2)
        assert self.check(T, np.minimum(labels, 1), methods, grid) is None

    def test_spectral_embeds_once_for_twenty_trials(self):
        rng = np.random.default_rng(5)
        truth = np.arange(30) % 5
        D = DistanceTensor(2, 30)
        for key in combinations(range(30), 2):
            D.set(key, float(rng.uniform(0.0, 3.0)))
        oracle_rngs = seeded_generators(3, 20)
        want = [clustering_error(spectral_cluster(D, 5, r), truth) for r in oracle_rngs]
        rngs = seeded_generators(3, 20)
        assert trial_errors(spectral_embedding(D, 5), truth, 5, rngs) == want
        assert len(set(want)) > 1
        for got, ref in zip(rngs, oracle_rngs, strict=True):
            assert got.bit_generator.state == ref.bit_generator.state


class TestClusteringSolution:
    def test_json_round_trip(self):
        sol = ClusteringSolution(labels=(0, 1, 0), k=2)
        assert sol.as_array().tolist() == [0, 1, 0]
        assert "labels" in sol.to_json()

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ClusteringSolution(labels=(0, 2), k=2)
