"""Harness tests: each workload at a tiny scale through the real harness.

    python -m pytest perfbench/tests -q
"""
import copy
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import record
import spans
import workloads as wl

MMOT_MODULES = ("mmot.cli", "mmot.experiments", "mmot.lp", "mmot.transport",
                "mmot.clustering", "mmot.linalg", "mmot.graphs", "mmot.metric_props",
                "mmot.hashes", "mmot.constructions", "mmot.core")


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    root = tmp_path_factory.mktemp("refs")
    return {name: record.record(name, str(root / name), wl.TINY) for name in wl.WORKLOADS}


def _attributes():
    """Identity of every attribute of every mmot module and patched class."""
    snap = {}
    for name in MMOT_MODULES:
        mod = importlib.import_module(name)
        snap[name] = {k: id(v) for k, v in vars(mod).items()}
    from mmot.metric_props import DistanceTensor
    snap["DistanceTensor"] = {k: id(v) for k, v in vars(DistanceTensor).items()}
    return snap


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_workload_reports_every_metric(name, references, tmp_path):
    res = harness.run_workload(name, 3, 0.1, False, str(tmp_path / "plain"), wl.TINY,
                               reference=references[name])
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] >= 1
    assert set(res["end_to_end"]) == set(harness.END_TO_END)
    assert all(harness.END_TO_END[k] for k in res["end_to_end"])
    assert all(v > 0 for v in res["end_to_end"].values())

    traced = harness.run_workload(name, 3, 0.1, True, str(tmp_path / "traced"), wl.TINY,
                                  reference=references[name])
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["per_layer"]) == set(harness.PER_LAYER)
    assert all(harness.PER_LAYER[k] for k in traced["per_layer"])
    for key, value in traced["per_layer"].items():
        if key.endswith("self_s"):
            assert value >= 0.0, key


def test_untraced_run_leaves_mmot_attributes_untouched(references, tmp_path):
    before = _attributes()
    harness.run_workload("mmot-desk", 1, 0.1, False, str(tmp_path / "a"), wl.TINY,
                         reference=references["mmot-desk"])
    assert _attributes() == before
    harness.run_workload("mmot-desk", 1, 0.1, True, str(tmp_path / "b"), wl.TINY,
                         reference=references["mmot-desk"])
    assert _attributes() == before  # a traced run restores what it patched


def test_output_mismatch_counts_as_failed_operation(references, tmp_path):
    ref = copy.deepcopy(references["mmot-desk"])
    values = ref["fixed"]["distances-pairwise"]["values"]
    key = sorted(values)[0]
    values[key] += 1e-6  # beyond the 1e-8 solver tolerance
    ref["variants"]["3"]["cluster-pairwise-ttm"]["errors"][0] += 0.5
    res = harness.run_workload("mmot-desk", 3, 0.1, False, str(tmp_path), wl.TINY,
                               reference=ref)
    assert res["failed"] == 2
    assert any("distances-pairwise" in f for f in res["failures"])
    assert any("cluster-pairwise-ttm" in f for f in res["failures"])


def test_self_time_excludes_children():
    tr = spans.Tracer()
    inner = tr.span("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
        return sum(range(20000))

    tr.span("outer", outer)()
    selfs = tr.self_times()
    assert [s.name for s in tr.spans] == ["outer", "inner", "inner"]
    assert all(v >= 0.0 for v in selfs)
    kids = tr.spans[1].duration + tr.spans[2].duration
    assert selfs[0] == pytest.approx(tr.spans[0].duration - kids)


def test_scaled_clock_divides_wall_by_measured_slowness():
    clock = harness.ScaledClock()
    before = clock.last
    raw, scaled, out = clock.time(sum, range(200000))
    assert out == sum(range(200000))
    slowness = (before + clock.last) / (2 * harness.CAL_REF_S)
    assert clock.slowness == [slowness]
    assert scaled == pytest.approx(raw / slowness)


def test_tail_quantile_keeps_ten_samples_above():
    vals = [float(v) for v in range(100)]
    value, pct = harness.tail_quantile(vals)
    assert pct == 90
    assert sum(v > value for v in vals) >= 10
    assert harness.tail_quantile([1.0, 5.0, 2.0]) == (5.0, 100)


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    shutil.copytree(os.path.join(root, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
