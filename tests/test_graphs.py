"""Graph families, perturbation, non-backtracking spectra, file round trips."""

import tracemalloc

import numpy as np
import pytest

from mmot.graphs import (
    DEFAULT_FAMILIES,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    erdos_renyi,
    generate,
    grid2d_periodic,
    hypercube,
    khop_lattice,
    load_graph,
    nonbacktracking_matrix,
    perturb,
    prune_min_degree,
    save_graph,
    signature,
)
from mmot import core
from mmot.linalg import eig_general


def as_multiset(values, digits=9):
    return sorted((round(z.real, digits), round(z.imag, digits)) for z in values)


class TestGraphClass:
    def test_adjacency_validation(self):
        with pytest.raises(ValueError):
            Graph(np.array([[0, 1], [2, 0]]))  # asymmetric weights
        with pytest.raises(ValueError):
            Graph(np.array([[1, 0], [0, 0]]))  # self loop
        with pytest.raises(ValueError):
            Graph(np.array([[0, 3], [3, 0]]))  # weight outside {0,1,2}

    def test_equality_and_edges(self):
        g = cycle(4)
        assert g == cycle(4)
        assert g != cycle(5)
        assert sorted(g.edges()) == [(0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)]

    def test_adjacency_is_read_only(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            g.adj[0, 1] = 0


class TestFamilies:
    def test_complete(self):
        g = complete(10)
        assert g.n == 10
        assert set(g.degrees()) == {9}

    def test_complete_bipartite(self):
        g = complete_bipartite(5, 5)
        assert g.n == 10
        assert set(g.degrees()) == {5}
        # no edge inside either side
        assert g.adj[:5, :5].sum() == 0
        assert g.adj[5:, 5:].sum() == 0

    def test_cycle(self):
        g = cycle(12)
        assert g.n == 12
        assert set(g.degrees()) == {2}
        with pytest.raises(ValueError):
            cycle(2)

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8
        assert set(g.degrees()) == {3}
        # neighbors differ in exactly one bit
        for u, v, _ in g.edges():
            assert bin(u ^ v).count("1") == 1

    def test_khop_lattice(self):
        g = khop_lattice(12, 2)
        assert g.n == 12
        assert set(g.degrees()) == {4}
        with pytest.raises(ValueError):
            khop_lattice(4, 2)

    def test_grid2d_periodic(self):
        g = grid2d_periodic(3, 4)
        assert g.n == 12
        assert set(g.degrees()) == {4}
        with pytest.raises(ValueError):
            grid2d_periodic(2, 4)

    def test_erdos_renyi_seeded_and_pruned(self):
        g1 = erdos_renyi(10, 0.4, rng=np.random.default_rng(5))
        g2 = erdos_renyi(10, 0.4, rng=np.random.default_rng(5))
        assert g1 == g2
        assert all(d >= 1 for d in g1.degrees())

    def test_generate_dispatch(self):
        for family, params in DEFAULT_FAMILIES.items():
            g = generate(family, params, rng=np.random.default_rng(0))
            assert g.n >= 3
        with pytest.raises(ValueError):
            generate("petersen", {}, None)


class TestPerturb:
    def test_zero_probability_is_identity(self):
        g = cycle(8)
        assert perturb(g, p=0.0, rng=np.random.default_rng(1)) is g

    def test_seeded_reproducibility(self):
        g = complete(8)
        a = perturb(g, p=0.3, rng=np.random.default_rng(7))
        b = perturb(g, p=0.3, rng=np.random.default_rng(7))
        assert a == b

    def test_result_has_min_degree_one(self):
        g = cycle(10)
        for seed in range(10):
            out = perturb(g, p=0.4, rng=np.random.default_rng(seed))
            assert all(d >= 1 for d in out.degrees())


class TestPrune:
    def test_removes_isolated_vertices(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = 1
        g = prune_min_degree(Graph(adj))
        assert g.n == 2

    def test_empty_result_is_an_error(self):
        with pytest.raises(ValueError):
            prune_min_degree(Graph(np.zeros((3, 3), dtype=int)))


def nonbacktracking_oracle(g):
    """The edge loop the vectorized build replaced: index, then walk each edge."""
    directed = [(u, v) for u in range(g.n) for v in range(g.n) if g.adj[u, v] > 0]
    index = {e: i for i, e in enumerate(directed)}
    m = np.zeros((len(directed), len(directed)))
    for (u, v), row in index.items():
        for y in np.nonzero(g.adj[v])[0]:
            if y != u:
                m[row, index[(v, int(y))]] = 1.0
    return m


class TestNonbacktracking:
    def test_matches_the_edge_loop(self):
        rng = np.random.default_rng(21)
        for family, params in DEFAULT_FAMILIES.items():
            base = generate(family, params, rng)
            for g in (base, perturb(base, 0.1, rng=rng)):
                # random symmetric weights 1 and 2 on the same edges: weights do not enter
                w = np.triu(rng.integers(1, 3, size=g.adj.shape), 1)
                reweighted = Graph(np.where(g.adj > 0, w + w.T, 0))
                want = nonbacktracking_oracle(g)
                for h in (g, reweighted):
                    got = nonbacktracking_matrix(h)
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_triangle_spectrum_is_cube_roots_doubled(self):
        B = nonbacktracking_matrix(cycle(3))
        assert B.shape == (6, 6)
        w = np.exp(2j * np.pi / 3)
        want = [1, 1, w, w, w.conjugate(), w.conjugate()]
        assert as_multiset(eig_general(B), 8) == as_multiset(want, 8)

    def test_single_edge_is_nilpotent(self):
        adj = np.zeros((2, 2), dtype=int)
        adj[0, 1] = adj[1, 0] = 1
        B = nonbacktracking_matrix(Graph(adj))
        np.testing.assert_array_equal(B, np.zeros((2, 2)))

    def test_star_is_nilpotent(self):
        adj = np.zeros((4, 4), dtype=int)
        for leaf in (1, 2, 3):
            adj[0, leaf] = adj[leaf, 0] = 1
        B = nonbacktracking_matrix(Graph(adj))
        np.testing.assert_allclose(np.abs(eig_general(B)), 0.0, atol=1e-12)

    def test_row_sums_are_terminal_degree_minus_one(self):
        g = complete_bipartite(3, 4)
        B = nonbacktracking_matrix(g)
        edges = [(u, v) for u, v, _ in g.edges()]
        directed = sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])
        deg = g.degrees()
        for row, (u, v) in enumerate(directed):
            assert B[row].sum() == deg[v] - 1

    def test_weights_do_not_enter(self):
        adj1 = np.zeros((3, 3), dtype=int)
        adj2 = np.zeros((3, 3), dtype=int)
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            adj1[a, b] = adj1[b, a] = 1
            adj2[a, b] = adj2[b, a] = 2
        np.testing.assert_array_equal(
            nonbacktracking_matrix(Graph(adj1)), nonbacktracking_matrix(Graph(adj2))
        )

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            nonbacktracking_matrix(Graph(np.zeros((3, 3), dtype=int)))

    def test_past_the_dimension_cap_is_refused_before_allocating(self):
        g = complete(50)  # 2,450 directed edges: a 48 MB dense matrix
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match="dimension 2450 exceeds the supported cap 2000"):
                signature(g, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestSignature:
    def test_truncates_to_top_k(self):
        sig = signature(complete(6), top_k=4)
        assert len(sig) == 4

    def test_short_spectra_keep_everything(self):
        sig = signature(cycle(3), top_k=16)
        assert len(sig) == 6

    def test_moduli_nonincreasing(self):
        sig = signature(grid2d_periodic(3, 4), top_k=12)
        mods = np.abs(sig)
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)


class TestFileRoundTrip:
    def test_round_trip(self, tmp_path):
        g = perturb(complete(6), p=0.2, rng=np.random.default_rng(3))
        p = tmp_path / "g.csv"
        save_graph(g, str(p))
        assert load_graph(str(p)) == g

    def test_node_id_past_the_cap_is_refused_at_its_line(self, tmp_path):
        # 3163 x 3163 cells pass core.MAX_ENTRIES (10^7); 3162 x 3162 do not
        p = tmp_path / "big.csv"
        p.write_text("0,1,1\n1,3162,1\n")
        with pytest.raises(ValueError, match=r"big\.csv:2: node id 3162 in the 3163 x 3163 "
                                             r"adjacency needs 10004569 cells, over the cap 10000000"):
            load_graph(str(p))

    def test_cap_counts_the_cells_of_the_adjacency(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "MAX_ENTRIES", 100)
        p = tmp_path / "g.csv"
        p.write_text("0,9,1\n")
        assert load_graph(str(p)).n == 10
        p.write_text("0,9,1\n10,0,1\n")
        with pytest.raises(ValueError, match=r"g\.csv:2: node id 10 "):
            load_graph(str(p))

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1,1\n2,2,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            load_graph(str(p))
        p.write_text("0,1,5\n")
        with pytest.raises(ValueError, match="weight"):
            load_graph(str(p))
        p.write_text("0,1,1\n0,1,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_graph(str(p))
        p.write_text("0,1,1\n1,2.5,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: non-integer field$"):
            load_graph(str(p))
        p.write_text("0,1,1\n-1,2,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: negative node id$"):
            load_graph(str(p))
        # lines are counted at "\n" alone: no other line break of
        # str.splitlines ("\r" aside) ends a line
        for sep in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
            p.write_text(f"0,1,1\n{sep}\n1,x,1\n")
            with pytest.raises(ValueError, match=r"bad\.csv:3: non-integer field$"):
                load_graph(str(p))
        p.write_text("nonsense\n")
        with pytest.raises(ValueError):
            load_graph(str(p))
        p.write_text("")
        with pytest.raises(ValueError):
            load_graph(str(p))
