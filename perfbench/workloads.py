"""The four benchmark workloads, their inputs and their output checks.

Every workload drives `mmot.cli.main` with argv lists, exactly as a user
of the `mmot` command would.  The corpus, the sampled tuples and the
injection are fixed by `Scale.corpus_seed`, so every run solves the same
LPs; the benchmark seed picks the clustering trial stream
(`--seed` of `mmot cluster`) from `VARIANTS` recorded variants, so every
run can be checked against a reference recorded for its variant.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

VARIANTS = 16
VALUE_TOL = 1e-8  # the repo's solver tolerance (transport.MARGINAL_TOL)
REL_TOL = 1e-8


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is the benchmark, `TINY` the harness tests."""

    corpus_seed: int = 20260819
    families: str = ""  # comma-separated; empty means all seven
    graphs_per_family: int = 5
    top_k: int = 16
    desk_top_k: int = 14
    triples_budget: int = 60
    desk_trials: int = 5
    audit_trials: int = 5
    spectral_trials: int = 20


FULL = Scale()
TINY = Scale(families="cycle,complete,hypercube", graphs_per_family=2, top_k=4,
             desk_top_k=4, triples_budget=20, desk_trials=2, audit_trials=2,
             spectral_trials=2)


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload and how to read back its output."""

    label: str
    kind: str  # distances | cluster | inject | verify
    argv: tuple[str, ...]
    output: str = ""  # file the command writes, read back for the check
    seeded: bool = False  # argv carries the benchmark's trial seed


@dataclass
class Workload:
    name: str
    # setup; returns the commands it ran with their outputs, for checking
    prepare: Callable[["Run"], list[tuple[Step, object]]]
    steps: Callable[["Run"], list[Step]]


@dataclass
class Run:
    """Work directory, corpus and trial variant of one run, and its failures."""

    scale: Scale
    workdir: str
    variant: int
    corpus_dir: str = ""
    failures: list[str] = field(default_factory=list)

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


# ---------------------------------------------------------------- commands

def run_cli(argv) -> tuple[int, str]:
    """Run one `mmot` command in process; returns (exit code, stdout)."""
    from mmot.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def _corpus_flags(run: Run) -> list[str]:
    return ["--input-dir", run.corpus_dir]


def write_corpus(run: Run) -> None:
    """Materialize the seeded corpus as graph csv files plus labels.csv."""
    from mmot.experiments import ExperimentConfig, build_corpus
    from mmot.graphs import save_graph

    s = run.scale
    cfg = {"seed": s.corpus_seed, "graphs_per_family": s.graphs_per_family}
    if s.families:
        cfg["families"] = tuple(s.families.split(","))
    run.corpus_dir = run.path("corpus")
    os.makedirs(run.corpus_dir, exist_ok=True)
    corpus = build_corpus(ExperimentConfig(**cfg))
    with open(os.path.join(run.corpus_dir, "labels.csv"), "w") as fh:
        for i, cg in enumerate(corpus):
            save_graph(cg.graph, os.path.join(run.corpus_dir, f"g{i:03d}.csv"))
            fh.write(f"g{i:03d},{cg.label}\n")


def corpus_size(run: Run) -> int:
    return sum(1 for f in os.listdir(run.corpus_dir) if f != "labels.csv")


def import_seconds() -> float:
    """Wall time of `import mmot.cli` in a fresh interpreter: CLI start-up."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mmot.cli"], env=env, check=True)
    return time.perf_counter() - started


def _distances(run: Run, label: str, backend: str, out: str, top_k: int) -> Step:
    n = corpus_size(run)
    argv = ("distances", "--seed", str(run.scale.corpus_seed), *_corpus_flags(run),
            "--backend", backend, "--top-k", str(top_k),
            "--triples-budget", str(run.scale.triples_budget), "--sampling", "blocks",
            "--pairs-budget", str(math.comb(n, 2)), "--out-dir", run.path(out))
    return Step(label, "distances", argv, run.path(out, f"tensor_{backend}.csv"))


def _cluster(run: Run, label: str, backend: str, clusterer: str, tensor: str,
             out: str, trials: int) -> Step:
    argv = ("cluster", "--seed", str(run.variant), *_corpus_flags(run),
            "--backend", backend, "--clusterer", clusterer, "--trials", str(trials),
            "--tensor", tensor, "--out-dir", run.path(out))
    return Step(label, "cluster", argv,
                run.path(out, f"report_{clusterer}_{backend}.json"), seeded=True)


def _inject(run: Run, label: str, tensor: str, out: str) -> Step:
    argv = ("inject", "--seed", str(run.scale.corpus_seed), "--tensor", tensor,
            "--fraction", "0.2", "--factor", "1.3",
            "--out", run.path(out, "tensor_injected.csv"),
            "--report", run.path(out, "inject.json"))
    return Step(label, "inject", argv, run.path(out, "inject.json"))


# --------------------------------------------------------------- workloads

def _corpus_prepare(run: Run) -> list:
    write_corpus(run)
    return []


def _desk_steps(run: Run) -> list[Step]:
    s = run.scale
    pw = run.path("pw", "tensor_mmot_pairwise.csv")
    nm = run.path("nm", "tensor_mmot_nonmetric.csv")
    t = s.desk_trials
    return [
        _distances(run, "distances-pairwise", "mmot_pairwise", "pw", s.desk_top_k),
        _distances(run, "distances-nonmetric", "mmot_nonmetric", "nm", s.desk_top_k),
        _cluster(run, "cluster-pairwise-ttm", "mmot_pairwise", "ttm", pw, "pw", t),
        _cluster(run, "cluster-pairwise-nhcut", "mmot_pairwise", "nhcut", pw, "pw", t),
        _cluster(run, "cluster-nonmetric-ttm", "mmot_nonmetric", "ttm", nm, "nm", t),
        _inject(run, "inject", pw, "pw"),
        _cluster(run, "cluster-injected-ttm", "mmot_pairwise", "ttm",
                 run.path("pw", "tensor_injected.csv"), "inj", t),
    ]


def _audit_prepare(run: Run) -> list:
    """wd_pairwise over every pair, then T[ijk] = W_ij + W_ik + W_jk."""
    from mmot.metric_props import DistanceTensor

    write_corpus(run)
    step = _distances(run, "setup-distances-wd", "wd_pairwise", "wd", run.scale.top_k)
    _, out = execute(run, step)
    W = DistanceTensor.from_csv(step.output)
    T = DistanceTensor(3, W.size)
    for i, j, k in combinations(range(W.size), 3):
        T.set((i, j, k), W.values[(i, j)] + W.values[(i, k)] + W.values[(j, k)])
    os.makedirs(run.path("full"), exist_ok=True)
    T.to_csv(run.path("full", "tensor_full.csv"))
    return [(step, out)]


def _audit_steps(run: Run) -> list[Step]:
    full = run.path("full", "tensor_full.csv")
    t = run.scale.audit_trials
    return [
        _cluster(run, "cluster-full-ttm", "mmot_pairwise", "ttm", full, "full", t),
        _cluster(run, "cluster-full-nhcut", "mmot_pairwise", "nhcut", full, "full", t),
        _inject(run, "inject", full, "full"),
        _cluster(run, "cluster-injected-ttm", "mmot_pairwise", "ttm",
                 run.path("full", "tensor_injected.csv"), "inj", t),
    ]


def _wd_steps(run: Run) -> list[Step]:
    wd = run.path("wd", "tensor_wd_pairwise.csv")
    return [
        _distances(run, "distances-wd", "wd_pairwise", "wd", run.scale.top_k),
        _cluster(run, "cluster-spectral", "wd_pairwise", "spectral", wd, "wd",
                 run.scale.spectral_trials),
    ]


def _verify_steps(run: Run) -> list[Step]:
    return [Step("verify", "verify", ("verify",))]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("mmot-desk", _corpus_prepare, _desk_steps),
        Workload("audit-full", _audit_prepare, _audit_steps),
        Workload("wd-spectral", _corpus_prepare, _wd_steps),
        Workload("verify", lambda run: [], _verify_steps),
    )
}


# ----------------------------------------------------------------- outputs

def read_output(step: Step, stdout: str):
    """The deterministic part of a command's output, as plain JSON data."""
    if step.kind == "distances":
        values = {}
        with open(step.output) as fh:
            for line in fh:
                *idx, value, flag = line.strip().split(",")
                if flag == "1":
                    values[",".join(idx)] = float(value)
        return {"values": values}
    if step.kind == "cluster":
        with open(step.output) as fh:
            rep = json.load(fh)
        return {key: rep[key] for key in
                ("errors", "median_error", "thresholds", "empirical_C")}
    if step.kind == "inject":
        with open(step.output) as fh:
            rep = json.load(fh)
        return {key: rep[key] for key in
                ("n_sampled", "n_modified", "empirical_C_before", "empirical_C_after")}
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    return {"checks": [ln.split(":")[0] for ln in lines]}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL)


def compare(kind: str, got, want) -> str:
    """Empty string when `got` matches the reference, else the first mismatch."""
    if kind == "distances":
        g, w = got["values"], want["values"]
        if set(g) != set(w):
            return f"sampled keys differ ({len(g)} vs {len(w)})"
        for key, value in w.items():
            if abs(g[key] - value) > VALUE_TOL:
                return f"value {key}: {g[key]!r} vs {value!r}"
        return ""
    if kind == "cluster":
        for key in ("errors", "median_error"):
            if got[key] != want[key]:
                return f"{key}: {got[key]} vs {want[key]}"
        pairs = list(zip(got["thresholds"], want["thresholds"]))
        pairs.append((got["empirical_C"], want["empirical_C"]))
        if len(got["thresholds"]) != len(want["thresholds"]) or not all(
                _close(a, b) for a, b in pairs):
            return f"thresholds/empirical_C differ beyond {REL_TOL} relative"
        return ""
    if kind == "inject":
        for key in ("n_sampled", "n_modified"):
            if got[key] != want[key]:
                return f"{key}: {got[key]} vs {want[key]}"
        for key in ("empirical_C_before", "empirical_C_after"):
            if not _close(got[key], want[key]):
                return f"{key}: {got[key]} vs {want[key]}"
        return ""
    if got != want or any(not c.startswith("PASS") for c in got["checks"]):
        return f"verify checks {got['checks']}"
    return ""


def execute(run: Run, step: Step) -> tuple[float, object]:
    """Run one command; returns (wall seconds, output or None on failure).

    A command fails when it raises, exits nonzero or writes no readable
    output; the failure is recorded on the run.
    """
    started = time.perf_counter()
    try:
        rc, stdout = run_cli(step.argv)
    except Exception as exc:  # a failed operation is counted, not fatal
        run.failures.append(f"{step.label}: raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - started, None
    wall = time.perf_counter() - started
    if rc != 0:
        run.failures.append(f"{step.label}: exit {rc}: {stdout.strip()[-200:]}")
        return wall, None
    try:
        return wall, read_output(step, stdout)
    except (OSError, ValueError, KeyError) as exc:
        run.failures.append(f"{step.label}: unreadable output: {exc}")
        return wall, None


def reference_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "references", f"{name}.json")


def expected(ref: dict, step: Step, variant: int):
    table = ref["variants"][str(variant)] if step.seeded else ref["fixed"]
    return table.get(step.label)
