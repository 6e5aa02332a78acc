"""Experiment pipeline: config parsing, seed streams, corpus, tensors."""

import dataclasses
import importlib
import json
import pkgutil
import typing
import weakref
from itertools import combinations

import numpy as np
import pytest

import mmot
from mmot.experiments import (
    ExperimentConfig,
    _blocked_triples,
    build_corpus,
    cmd_cluster,
    cmd_distances,
    compute_tensor,
    derive_seed,
    parse_config_text,
    signature_distribution,
    splitmix64,
)
from mmot import experiments
from mmot.cli import main
from mmot.clustering import (
    build_hypergraph,
    clustering_error,
    nhcut,
    nhcut_embedding,
    spectral_cluster,
    ttm,
    ttm_embedding,
    tune_threshold,
)
from mmot.graphs import complete, cycle, save_graph, signature
from mmot.metric_props import DistanceTensor, check_W_tensor
from mmot.transport import (
    EFFECTIVELY_INFINITE,
    SENTINEL_COST,
    PairwiseCost,
    TransportResult,
    euclidean_cost,
    pairwise_mmot,
)

import backend_oracle
import tuning_oracle


class TestSeeds:
    def test_splitmix64_published_vectors(self):
        # first two outputs of the reference splitmix64 stream seeded with 0:
        # the scrambler applied to successive multiples of the increment
        inc = 0x9E3779B97F4A7C15
        assert splitmix64(inc) == 0xE220A8397B1DCDAF
        assert splitmix64((2 * inc) & (2**64 - 1)) == 0x6E789E6AA1B965F4

    def test_derive_seed_distinct_streams(self):
        seen = {derive_seed(12345, t, u) for t in range(8) for u in range(8)}
        assert len(seen) == 64
        for s in seen:
            assert 0 <= s < 2**64

    def test_derive_seed_depends_on_master(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)


class TestConfigParsing:
    def test_full_round_trip(self):
        text = """
        # corpus
        seed = 7
        families = cycle, complete
        graphs_per_family = 3
        perturb_p = 0.1
        top_k = 8
        backend = mmot_pairwise
        ell = 1
        pairs_budget = 10
        triples_budget = 5
        threshold_grid = 0.5, 1.0
        clusterer = nhcut
        trials = 2
        out_dir = /tmp/x
        """
        cfg = parse_config_text(text)
        assert cfg["seed"] == 7
        assert cfg["families"] == ("cycle", "complete")
        assert cfg["threshold_grid"] == (0.5, 1.0)
        assert cfg["clusterer"] == "nhcut"

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_config_text("seed = 1\nbogus = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_unparseable_value_names_key(self):
        with pytest.raises(ValueError, match="trials"):
            parse_config_text("trials = lots\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("no equals sign here\n")


class TestExperimentConfig:
    def test_validation_names_offending_key(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig(seed=1, backend="magic")
        with pytest.raises(ValueError, match="clusterer"):
            ExperimentConfig(seed=1, clusterer="magic")
        with pytest.raises(ValueError, match="ell"):
            ExperimentConfig(seed=1, ell=0)
        with pytest.raises(ValueError, match="perturb_p"):
            ExperimentConfig(seed=1, perturb_p=1.5)
        with pytest.raises(ValueError, match="families"):
            ExperimentConfig(seed=1, families=("petersen",))

    def test_ell_above_one_needs_nonmetric_backend(self):
        with pytest.raises(ValueError, match="ell"):
            ExperimentConfig(seed=1, backend="mmot_pairwise", ell=2)
        cfg = ExperimentConfig(seed=1, backend="mmot_nonmetric", ell=2)
        assert cfg.ell == 2

    def test_to_json_is_sorted_and_complete(self):
        cfg = ExperimentConfig(seed=3)
        d = json.loads(cfg.to_json())
        assert d["seed"] == 3
        assert list(d) == sorted(d)


class TestCorpus:
    def test_deterministic_under_seed(self):
        cfg = ExperimentConfig(seed=5, families=("cycle", "complete"), graphs_per_family=3)
        a = build_corpus(cfg)
        b = build_corpus(cfg)
        assert len(a) == 6
        for x, y in zip(a, b):
            assert x.graph == y.graph
            assert x.graph_id == y.graph_id

    def test_labels_follow_family_order(self):
        cfg = ExperimentConfig(seed=5, families=("cycle", "complete"), graphs_per_family=2)
        corpus = build_corpus(cfg)
        assert [g.label for g in corpus] == [0, 0, 1, 1]

    def test_different_seeds_differ(self):
        kw = dict(families=("erdos_renyi",), graphs_per_family=4)
        a = build_corpus(ExperimentConfig(seed=1, **kw))
        b = build_corpus(ExperimentConfig(seed=2, **kw))
        assert any(x.graph != y.graph for x, y in zip(a, b))


class TestLabelsFile:
    def corpus_dir(self, tmp_path, labels):
        for name, g in (("g0", cycle(4)), ("g1", cycle(5)), ("g2", complete(4))):
            save_graph(g, str(tmp_path / f"{name}.csv"))
        (tmp_path / "labels.csv").write_text(labels)
        return ExperimentConfig(seed=1, input_dir=str(tmp_path))

    def test_full_labels_load(self, tmp_path):
        cfg = self.corpus_dir(tmp_path, "g0,3\ng1,3\ng2,8\n")
        assert [cg.label for cg in build_corpus(cfg)] == [0, 0, 1]

    def test_repeated_graph_names_its_line(self, tmp_path):
        cfg = self.corpus_dir(tmp_path, "g0,0\ng1,0\ng0,1\ng2,1\n")
        with pytest.raises(ValueError, match=r"labels\.csv:3: graph 'g0' labeled twice"):
            build_corpus(cfg)

    def test_row_without_a_graph_file_names_its_line(self, tmp_path):
        cfg = self.corpus_dir(tmp_path, "g0,0\ng1,0\n\ng3,1\ng2,1\n")
        with pytest.raises(ValueError, match=r"labels\.csv:4: no graph file g3\.csv"):
            build_corpus(cfg)

    def test_cluster_names_the_unlabeled_graphs(self, tmp_path, capsys):
        cfg = self.corpus_dir(tmp_path, "g0,0\ng2,1\n")
        T = DistanceTensor(3, 3)
        T.set((0, 1, 2), 1.0)
        T.to_csv(str(tmp_path / "t.txt"))
        rc = main(["cluster", "--seed", "1", "--input-dir", cfg.input_dir,
                   "--tensor", str(tmp_path / "t.txt"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no truth label for 1 of 3 graphs (g1)")


class TestSignatureDistribution:
    def test_merges_coincident_eigenvalues(self):
        from mmot.graphs import cycle

        # the directed triangle's edge spectrum is the cube roots of unity,
        # each twice, so merging leaves three atoms of mass 1/3
        dist = signature_distribution(signature(cycle(3), top_k=16))
        assert dist.size == 3
        assert sorted(dist.masses) == pytest.approx([1 / 3] * 3)

    def test_masses_sum_to_one(self):
        from mmot.graphs import grid2d_periodic

        dist = signature_distribution(signature(grid2d_periodic(3, 4), top_k=10))
        assert float(np.sum(dist.masses)) == pytest.approx(1.0, abs=1e-12)


class TestComputeTensor:
    def small_config(self, backend, **kw):
        return ExperimentConfig(
            seed=9,
            families=("cycle", "complete"),
            graphs_per_family=3,
            top_k=6,
            backend=backend,
            pairs_budget=100,
            triples_budget=8,
            **kw,
        )

    def distributions(self, cfg):
        corpus = build_corpus(cfg)
        return [signature_distribution(signature(g.graph, top_k=cfg.top_k)) for g in corpus]

    def test_pair_backend_yields_order_two(self):
        cfg = self.small_config("wd_pairwise")
        T, _ = compute_tensor(cfg, self.distributions(cfg))
        assert T.order == 2
        assert T.n_sampled == 15  # C(6,2), within budget

    def test_triple_backend_respects_budget(self):
        cfg = self.small_config("mmot_pairwise")
        T, _ = compute_tensor(cfg, self.distributions(cfg))
        assert T.order == 3
        assert T.n_sampled == 8

    def test_deterministic(self):
        cfg = self.small_config("mmot_pairwise")
        dists = self.distributions(cfg)
        a, _ = compute_tensor(cfg, dists)
        b, _ = compute_tensor(cfg, dists)
        assert a.values == b.values


class TestBackendTable:
    @pytest.mark.parametrize("backend, ell", [(b, 1) for b in experiments.BACKENDS]
                             + [("mmot_nonmetric", 2)])
    def test_tensor_matches_the_switch_it_replaced(self, backend, ell):
        cfg = ExperimentConfig(seed=4, families=("cycle", "complete", "hypercube"),
                               graphs_per_family=2, top_k=4, backend=backend, ell=ell,
                               pairs_budget=100, triples_budget=100)
        dists = [signature_distribution(signature(g.graph, top_k=cfg.top_k))
                 for g in build_corpus(cfg)]
        T, solves = compute_tensor(cfg, dists)
        order = backend_oracle.order(backend)
        assert T.order == experiments._BACKENDS[backend][0] == order
        assert solves == len(list(combinations(range(6), order)))
        for tup in combinations(range(6), order):
            want = backend_oracle.tuple_distance(backend, [dists[i] for i in tup], ell)
            if want > EFFECTIVELY_INFINITE:
                assert np.isnan(T.dense[tup])
            else:
                assert T.dense[tup] == want

    def test_pairwise_entry_costs_every_pair_of_four(self):
        ps = [signature_distribution(signature(g, top_k=4))
              for g in (cycle(5), cycle(7), complete(4), complete(5))]
        _, solve = experiments._BACKENDS["mmot_pairwise"]
        got = solve(ps, 1)
        cost = PairwiseCost({(s, t): euclidean_cost(ps[s], ps[t])
                             for s, t in combinations(range(4), 2)})
        want = pairwise_mmot(ps, cost)
        assert len(got.per_pair_terms) == 6
        assert got.value == want.value
        assert got.per_pair_terms == want.per_pair_terms


    def test_no_result_outlives_the_next_solve(self, monkeypatch):
        cfg = ExperimentConfig(seed=4, families=("cycle", "complete"), graphs_per_family=3,
                               top_k=4, backend="mmot_pairwise", triples_budget=100)
        order, real = experiments._BACKENDS["mmot_pairwise"]
        refs = []

        def tracked(ps, ell):
            # the previous tuple's result may still be bound, no older one
            assert sum(ref() is not None for ref in refs) <= 1
            res = real(ps, ell)
            refs.append(weakref.ref(res))
            return res

        monkeypatch.setitem(experiments._BACKENDS, "mmot_pairwise", (order, tracked))
        dists = [signature_distribution(signature(g.graph, top_k=cfg.top_k))
                 for g in build_corpus(cfg)]
        T, solves = compute_tensor(cfg, dists)
        assert solves == len(refs) == T.n_sampled == 20
        assert all(ref() is None for ref in refs)


def test_nan_value_is_refused(monkeypatch):
    # NaN compares false against the blocked threshold, so it is no blocked verdict
    cfg = ExperimentConfig(seed=5, families=("cycle", "complete"), graphs_per_family=2,
                           top_k=4, backend="wd_pairwise")
    order, real = experiments._BACKENDS["wd_pairwise"]
    calls = []

    def nan_first(ps, ell):
        calls.append(ps)
        res = real(ps, ell)
        return TransportResult(np.nan, res.coupling) if len(calls) == 1 else res

    monkeypatch.setitem(experiments._BACKENDS, "wd_pairwise", (order, nan_first))
    dists = [signature_distribution(signature(g.graph, top_k=cfg.top_k))
             for g in build_corpus(cfg)]
    with pytest.raises(ValueError, match="value must be finite and nonnegative, got nan"):
        compute_tensor(cfg, dists)


def test_blocked_tuple_is_not_a_distance(tmp_path, monkeypatch):
    cfg = ExperimentConfig(seed=5, families=("cycle", "complete", "hypercube"),
                           graphs_per_family=2, top_k=4, backend="mmot_pairwise",
                           triples_budget=20, out_dir=str(tmp_path))
    order, real = experiments._BACKENDS["mmot_pairwise"]
    calls = []

    def blocked_first(ps, ell):
        # tuples are solved in increasing order, so the first is (0, 1, 2)
        calls.append(ps)
        res = real(ps, ell)
        return TransportResult(SENTINEL_COST, res.coupling) if len(calls) == 1 else res

    monkeypatch.setitem(experiments._BACKENDS, "mmot_pairwise", (order, blocked_first))
    cmd_distances(cfg)
    meta = json.loads((tmp_path / "distances_mmot_pairwise.json").read_text())
    assert meta["transport_solves"] == 20
    assert meta["n_sampled"] == 19
    T = DistanceTensor.from_csv(str(tmp_path / "tensor_mmot_pairwise.csv"))
    assert np.isnan(T.dense[0, 1, 2])
    # the subsets through (0, 1, 2) are skipped, not read as violations
    rep = check_W_tensor(T)
    assert rep.triangle and not rep.violations
    assert rep.empirical_C >= 1.0
    seen = []

    def record(tensor, th):
        seen.append(th)
        return np.zeros((tensor.size, 1))

    tune_threshold(T, [0] * T.size, record, 1, [np.random.default_rng(0)])
    assert len(seen) == 10
    assert max(seen) == T.sampled_entries()[1].max() < EFFECTIVELY_INFINITE


class TestBlockedSampling:
    def test_exact_budget_full_coverage_and_complete_subsets(self):
        rng = np.random.Generator(np.random.PCG64(derive_seed(7, 1, 1)))
        triples = _blocked_triples(35, 60, rng)
        assert len(triples) == 60
        assert len(set(triples)) == 60
        covered = {v for t in triples for v in t}
        assert covered == set(range(35))
        sampled = set(triples)
        full = [
            sub for sub in combinations(range(35), 4)
            if all(t in sampled for t in combinations(sub, 3))
        ]
        # enough complete 4-subsets to inject into 20% of 60 entries
        assert len(full) >= 12

    def test_deterministic(self):
        a = _blocked_triples(20, 40, np.random.Generator(np.random.PCG64(3)))
        b = _blocked_triples(20, 40, np.random.Generator(np.random.PCG64(3)))
        assert a == b

    def test_budget_too_small_to_cover(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError, match="cover"):
            _blocked_triples(35, 20, rng)

    def test_needs_four_objects(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError, match="4 objects"):
            _blocked_triples(3, 10, rng)

    def test_sampling_key_validated(self):
        with pytest.raises(ValueError, match="'sampling'"):
            ExperimentConfig(seed=1, sampling="bogus")

    def test_blocks_tensor_still_meets_budget(self):
        cfg = ExperimentConfig(
            seed=9,
            families=("cycle", "complete"),
            graphs_per_family=4,
            top_k=6,
            backend="mmot_pairwise",
            triples_budget=12,
            sampling="blocks",
        )
        corpus = build_corpus(cfg)
        dists = [signature_distribution(signature(g.graph, top_k=cfg.top_k)) for g in corpus]
        T, _ = compute_tensor(cfg, dists)
        assert T.n_sampled == 12
        covered = {v for t in T.values for v in t}
        assert covered == set(range(8))

    def test_blocks_ignored_for_pair_tensors(self):
        base = dict(
            seed=9,
            families=("cycle", "complete"),
            graphs_per_family=3,
            top_k=6,
            backend="wd_pairwise",
            pairs_budget=10,
        )
        corpus = build_corpus(ExperimentConfig(**base))
        dists = [signature_distribution(signature(g.graph, top_k=6)) for g in corpus]
        a, _ = compute_tensor(ExperimentConfig(sampling="blocks", **base), dists)
        b, _ = compute_tensor(ExperimentConfig(sampling="triples", **base), dists)
        assert a.values == b.values


def test_every_dataclass_type_hint_resolves():
    checked = 0
    for info in pkgutil.iter_modules(mmot.__path__):
        module = importlib.import_module(f"mmot.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                typing.get_type_hints(obj)
                checked += 1
    assert checked >= 10


class TestEmpiricalCPairs:
    def test_equally_spaced_line_attains_one(self):
        # d(0,2) = d(0,1) + d(1,2) exactly on a line
        T = DistanceTensor(2, 3)
        T.set((0, 1), 1.0)
        T.set((1, 2), 1.0)
        T.set((0, 2), 2.0)
        assert check_W_tensor(T).empirical_C == pytest.approx(1.0, abs=1e-12)

    def test_unsampled_pairs_are_skipped(self):
        T = DistanceTensor(2, 4)
        T.set((0, 1), 1.0)
        assert check_W_tensor(T).empirical_C is None


class TestPipelineFiles:
    def test_distances_then_cluster_files(self, tmp_path):
        cfg = ExperimentConfig(
            seed=21,
            families=("cycle", "complete"),
            graphs_per_family=3,
            top_k=6,
            backend="mmot_pairwise",
            pairs_budget=40,
            triples_budget=20,
            trials=3,
            clusterer="ttm",
            out_dir=str(tmp_path),
        )
        paths = cmd_distances(cfg)
        tensor_path = tmp_path / "tensor_mmot_pairwise.csv"
        assert tensor_path.exists()
        assert (tmp_path / "corpus.json").exists()
        meta = json.loads((tmp_path / "distances_mmot_pairwise.json").read_text())
        assert meta["n_graphs"] == 6
        assert paths["tensor"] == str(tensor_path)

        report, path = cmd_cluster(cfg, str(tensor_path))
        assert report.trials == 3
        assert len(report.errors) == 3
        assert report.k == 2
        assert (tmp_path / "report_ttm_mmot_pairwise.json").exists()
        assert (tmp_path / "hist_ttm_mmot_pairwise.dat").exists()
        # report json is loadable and self-consistent
        data = json.loads((tmp_path / "report_ttm_mmot_pairwise.json").read_text())
        assert data["median_error"] == report.median_error


class TestClusterMatchesPerTrialOracle:
    """cmd_cluster equals the per-trial loop: each trial tuned alone on its own stream."""

    @staticmethod
    def config(tmp_path, backend, clusterer, **kw):
        # every family, so trials disagree and a shared stream would show
        return ExperimentConfig(seed=7, graphs_per_family=3, top_k=6, backend=backend,
                                triples_budget=60, sampling="blocks", trials=20,
                                clusterer=clusterer, out_dir=str(tmp_path), **kw)

    @pytest.mark.parametrize("backend,clusterer,quantiles", [
        ("mmot_pairwise", "ttm", None),
        ("mmot_pairwise", "nhcut", None),
        # repeated gridpoints, out of order
        ("mmot_pairwise", "ttm", (0.1, 0.5, 0.5, 1.0, 0.3, 0.5)),
        ("mmot_pairwise", "nhcut", (0.1, 0.5, 0.5, 1.0, 0.3, 0.5)),
        ("wd_pairwise", "spectral", None),
    ])
    def test_errors_thresholds_and_gridpoints(self, tmp_path, backend, clusterer, quantiles):
        cfg = self.config(tmp_path, backend, clusterer)
        tensor = cmd_distances(cfg)["tensor"]
        T = DistanceTensor.from_csv(tensor)
        values = T.sampled_entries()[1]
        grid = None if quantiles is None else tuple(np.quantile(values, quantiles).tolist())
        cfg = dataclasses.replace(cfg, threshold_grid=grid)
        report, _ = cmd_cluster(cfg, tensor)
        truth = [cg.label for cg in build_corpus(cfg)]
        k = len(set(truth))
        want = []
        for trial in range(cfg.trials):
            rng = experiments._stream(cfg.seed, 2 + trial, 0)
            if clusterer == "spectral":
                want.append((None, clustering_error(spectral_cluster(T, k, rng), truth)))
                continue
            method = ttm if clusterer == "ttm" else nhcut

            def run(tensor, th, method=method, rng=rng):
                return method(build_hypergraph(tensor, th), k, rng)

            want.append(tuning_oracle.tune_threshold(T, truth, run, grid))
        assert list(zip(report.thresholds, report.errors)) == want
        assert len(set(want)) > 1
        if clusterer == "spectral":
            assert report.work == {"clusterings": 20}
            return
        # each gridpoint's fate is what its embedding alone gives
        embedding = ttm_embedding if clusterer == "ttm" else nhcut_embedding
        fates = []
        for th in grid or np.quantile(values, np.linspace(0.1, 1.0, 10)).tolist():
            try:
                embedding(build_hypergraph(T, th), k)
                fates.append({"threshold": th, "refused": None})
            except ValueError as exc:
                fates.append({"threshold": th, "refused": str(exc)})
        assert report.work == {"clusterings": 20, "gridpoints": fates}
        assert any(f["refused"] for f in fates) and not all(f["refused"] for f in fates)

    def test_spectral_refuses_a_threshold_grid(self, tmp_path):
        cfg = ExperimentConfig(seed=7, families=("cycle", "complete"), graphs_per_family=3,
                               top_k=6, backend="wd_pairwise", clusterer="spectral",
                               threshold_grid=(0.5, 1.0), out_dir=str(tmp_path))
        tensor = cmd_distances(cfg)["tensor"]
        with pytest.raises(ValueError, match=r"^config key 'threshold_grid' \(--threshold-grid\): "
                                             "spectral clustering has no threshold to tune$"):
            cmd_cluster(cfg, tensor)
        assert not (tmp_path / "report_spectral_wd_pairwise.json").exists()
