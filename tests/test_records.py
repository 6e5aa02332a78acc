"""Record serializers: `to_json` follows the dataclass and keeps the old bytes.

Each record writes `json.dumps(asdict(self), sort_keys=True)`.  The
hand-written field lists in `json_oracle` are the exact oracle: over
seeded random records the bytes must match.
"""
from dataclasses import fields
from itertools import combinations

import numpy as np

from json_oracle import (
    clustering_solution_json,
    config_json,
    experiment_report_json,
    metric_report_json,
)
from mmot.clustering import ClusteringSolution
from mmot.experiments import (
    BACKENDS,
    CLUSTERERS,
    CONFIG_PARSERS,
    ExperimentConfig,
    ExperimentReport,
)
from mmot.graphs import DEFAULT_FAMILIES
from mmot.metric_props import DistanceTensor, MetricReport, check_W_tensor

N_RECORDS = 60
FAMILY_NAMES = list(DEFAULT_FAMILIES)


def pick(rng, options):
    return options[int(rng.integers(len(options)))]


def maybe(rng, value):
    return None if rng.random() < 0.3 else value


def random_config(rng):
    families = tuple(rng.permutation(FAMILY_NAMES)[:int(rng.integers(1, 4))].tolist())
    backend = pick(rng, BACKENDS)
    grid = maybe(rng, tuple(float(v) for v in rng.exponential(size=int(rng.integers(1, 5)))))
    return ExperimentConfig(
        seed=int(rng.integers(2**63)),
        families=families,
        graphs_per_family=int(rng.integers(1, 20)),
        perturb_p=float(rng.random()),
        input_dir=maybe(rng, f"graphs-{int(rng.integers(100))}"),
        top_k=int(rng.integers(1, 30)),
        backend=backend,
        ell=int(rng.integers(1, 4)) if backend == "mmot_nonmetric" else 1,
        pairs_budget=int(rng.integers(1, 600)),
        triples_budget=int(rng.integers(1, 600)),
        sampling=pick(rng, ("triples", "blocks")),
        threshold_grid=grid,
        clusterer=pick(rng, CLUSTERERS),
        trials=int(rng.integers(1, 25)),
        out_dir=f"out/{int(rng.integers(100))}",
    )


def random_report(rng):
    trials = int(rng.integers(1, 25))
    errors = rng.random(trials)
    counts, edges = np.histogram(errors, bins=10, range=(0.0, 1.0))
    clusterer = pick(rng, CLUSTERERS)
    thresholds = tuple(None if clusterer == "spectral" else maybe(rng, float(v))
                       for v in rng.exponential(size=trials))
    return ExperimentReport(
        backend=pick(rng, BACKENDS),
        clusterer=clusterer,
        trials=trials,
        k=int(rng.integers(1, 8)),
        n_graphs=int(rng.integers(4, 80)),
        errors=tuple(float(e) for e in errors),
        thresholds=thresholds,
        median_error=float(np.median(errors)),
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in counts),
        empirical_C=maybe(rng, float(rng.exponential())),
        work={"clusterings": trials},
    )


def random_metric_report(rng):
    order = int(rng.integers(2, 4))
    size = int(rng.integers(order + 1, 8))
    T = DistanceTensor(order, size)
    for idx in combinations(range(size), order):
        if rng.random() < 0.8:
            T.set(idx, float(rng.exponential()))
    rep = check_W_tensor(T, C=float(rng.uniform(0.5, 2.0)))
    rep.identity = maybe(rng, bool(rng.random() < 0.5))
    rep.nonnegative = maybe(rng, rep.nonnegative)
    return rep


def random_solution(rng):
    k = int(rng.integers(1, 6))
    n = int(rng.integers(1, 40))
    return ClusteringSolution(tuple(int(v) for v in rng.integers(k, size=n)), k)


class TestToJsonMatchesOracle:
    def test_experiment_config(self):
        rng = np.random.default_rng(701)
        for _ in range(N_RECORDS):
            cfg = random_config(rng)
            assert cfg.to_json() == config_json(cfg)
        default = ExperimentConfig(seed=3)
        assert default.to_json() == config_json(default)

    def test_experiment_report(self):
        rng = np.random.default_rng(702)
        reports = [random_report(rng) for _ in range(N_RECORDS)]
        assert any(None in rep.thresholds for rep in reports)
        assert any(rep.empirical_C is None for rep in reports)
        for rep in reports:
            assert rep.to_json() == experiment_report_json(rep)

    def test_metric_report(self):
        rng = np.random.default_rng(703)
        reports = [random_metric_report(rng) for _ in range(N_RECORDS)]
        reports.append(MetricReport())
        assert any(rep.violations for rep in reports)
        assert any(rep.empirical_C is None for rep in reports)
        for rep in reports:
            assert rep.to_json() == metric_report_json(rep)

    def test_clustering_solution(self):
        rng = np.random.default_rng(704)
        for _ in range(N_RECORDS):
            sol = random_solution(rng)
            assert sol.to_json() == clustering_solution_json(sol)


def test_parser_table_is_the_config_schema():
    assert list(CONFIG_PARSERS) == [f.name for f in fields(ExperimentConfig)]
