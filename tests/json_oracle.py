"""Exact oracles for the record serializers: each field listed by hand.

These are the hand-written `to_json` bodies that `ExperimentConfig`,
`ExperimentReport`, `MetricReport` and `ClusteringSolution` carried
before they became `json.dumps(asdict(self), sort_keys=True)`.  The
tests require the dataclass-driven versions to give the same bytes.
"""
import json
from dataclasses import fields


def config_json(cfg):
    data = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    data["families"] = list(cfg.families)
    if cfg.threshold_grid is not None:
        data["threshold_grid"] = list(cfg.threshold_grid)
    return json.dumps(data, sort_keys=True)


def experiment_report_json(rep):
    data = {
        "backend": rep.backend,
        "clusterer": rep.clusterer,
        "trials": rep.trials,
        "k": rep.k,
        "n_graphs": rep.n_graphs,
        "errors": list(rep.errors),
        "thresholds": list(rep.thresholds),
        "median_error": rep.median_error,
        "histogram_edges": list(rep.histogram_edges),
        "histogram_counts": list(rep.histogram_counts),
        "empirical_C": rep.empirical_C,
        "work": rep.work,
    }
    return json.dumps(data, sort_keys=True)


def metric_report_json(rep):
    payload = {
        "nonnegative": rep.nonnegative,
        "identity": rep.identity,
        "symmetric": rep.symmetric,
        "triangle": rep.triangle,
        "empirical_C": rep.empirical_C,
        "n_checked": rep.n_checked,
        "violations": rep.violations,
    }
    return json.dumps(payload, sort_keys=True)


def clustering_solution_json(sol):
    return json.dumps({"k": sol.k, "labels": list(sol.labels)}, sort_keys=True)
