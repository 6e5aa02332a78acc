"""Set up, time, trace and check one workload run.

`run_workload` is the whole benchmark for one (workload, seed): set-up
repeated at least `SETUP_REPEATS` times and for `SETUP_SECONDS`, whole
iterations of the timed commands for `seconds`, every command's
output checked against the recorded reference, and the metrics of
BENCHMARK.json.  Times are scaled to the reference machine's speed by
`ScaledClock`.  With tracing on, one untraced iteration is followed by
one traced iteration; the layer metrics come from the traced one and the
difference of their scaled walls is the tracing overhead.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import defaultdict

import spans
import workloads as wl

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "lp.solve_s": "s", "lp.solves": "count", "lp.nonoptimal": "count",
    "lp.columns": "count", "lp.rows": "count", "lp.feasible_s": "s",
    "transport.solve_s": "s", "transport.self_s": "s", "transport.solves": "count",
    "transport.solve_ms_p50": "ms", "transport.solve_ms_tail": "ms",
    "transport.sentinel_solves": "count",
    "clustering.build_hypergraph_s": "s", "clustering.hyperedges": "count",
    "clustering.hypergraph_self_s": "s", "clustering.spectral_self_s": "s",
    "clustering.kmeans_s": "s", "clustering.kmeans_calls": "count",
    "clustering.error_s": "s", "clustering.error_calls": "count",
    "clustering.tune_threshold_s": "s", "clustering.gridpoints": "count",
    "clustering.gridpoints_usable": "count", "clustering.gridpoint_usable_frac": "ratio",
    "linalg.eig_symmetric_s": "s", "linalg.eig_symmetric_calls": "count",
    "linalg.eig_general_s": "s", "graphs.signature_s": "s", "graphs.signatures": "count",
    "experiments.corpus_s": "s", "experiments.self_s": "s",
    "metric_props.csv_read_s": "s", "metric_props.csv_write_s": "s",
    "metric_props.check_W_s": "s", "metric_props.check_W_checked": "count",
    "metric_props.inject_s": "s", "metric_props.inject_modified": "count",
    "hashes.audit_s": "s", "constructions.build_s": "s", "core.glue_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "sanity.lp_wall_share": "ratio",
}

# Claims each workload must satisfy at the commit that recorded the
# references.  They are printed, not folded into `correct`: a change
# that moves them (a faster LP, a fixed threshold grid) is allowed to.
SANITY = {
    "mmot-desk": (("sanity.lp_wall_share", ">=", 0.9),),
    "audit-full": (("lp.solves", "==", 0),),
}


def machine_block(root: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_commit": commit,
    }


def tail_quantile(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it.

    Returns (value, percentile); below 20 samples that is the maximum,
    reported as percentile 100.
    """
    if len(values) < 20:
        return max(values), 100
    pct = int(100 * (1 - 10 / len(values)))
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


def _layer_metrics(tr: spans.Tracer, untraced_wall: float, traced_wall: float,
                   traced_raw: float) -> dict:
    """Layer metrics of a traced iteration.

    Span times are raw; the two walls are scaled, so that their difference,
    the tracing overhead, is not the host's drift between the iterations.
    """
    selfs = tr.self_times()
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    self_by = defaultdict(float)
    solve_ms = []
    for i, s in enumerate(tr.spans):
        total[s.name] += s.duration
        calls[s.name] += 1
        self_by[s.name] += selfs[i]
        for key, val in s.counts.items():
            counts[f"{s.name}.{key}"] += val
        if s.name == "transport.solve":
            solve_ms.append(1e3 * s.duration)
    per_command = gridpoints_by_command(tr).values()
    usable = sum(u for u, _ in per_command)
    gridpoints = sum(g for _, g in per_command)
    tail, _ = tail_quantile(solve_ms) if solve_ms else (0.0, 100)
    m = {
        "lp.solve_s": total["lp.solve"], "lp.solves": calls["lp.solve"],
        "lp.nonoptimal": counts["lp.solve.nonoptimal"],
        "lp.columns": counts["lp.solve.columns"], "lp.rows": counts["lp.solve.rows"],
        "lp.feasible_s": total["lp.feasible"],
        "transport.solve_s": total["transport.solve"],
        "transport.self_s": self_by["transport.solve"] + self_by["transport.cost"],
        "transport.solves": calls["transport.solve"],
        "transport.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "transport.solve_ms_tail": tail,
        "transport.sentinel_solves": counts["transport.solve.sentinel"],
        "clustering.build_hypergraph_s": total["clustering.build_hypergraph"],
        "clustering.hyperedges": counts["clustering.build_hypergraph.hyperedges"],
        "clustering.hypergraph_self_s": self_by["clustering.hypergraph"],
        "clustering.spectral_self_s": self_by["clustering.spectral"],
        "clustering.kmeans_s": total["clustering.kmeans"],
        "clustering.kmeans_calls": calls["clustering.kmeans"],
        "clustering.error_s": total["clustering.error"],
        "clustering.error_calls": calls["clustering.error"],
        "clustering.tune_threshold_s": total["clustering.tune_threshold"],
        "clustering.gridpoints": gridpoints,
        "clustering.gridpoints_usable": usable,
        "clustering.gridpoint_usable_frac": usable / gridpoints if gridpoints else 0.0,
        "linalg.eig_symmetric_s": total["linalg.eig_symmetric"],
        "linalg.eig_symmetric_calls": calls["linalg.eig_symmetric"],
        "linalg.eig_general_s": total["linalg.eig_general"],
        "graphs.signature_s": total["graphs.signature"],
        "graphs.signatures": calls["graphs.signature"],
        "experiments.corpus_s": total["experiments.corpus"],
        "experiments.self_s": self_by["experiments.cmd"] + self_by["cli"],
        "metric_props.csv_read_s": total["metric_props.csv_read"],
        "metric_props.csv_write_s": total["metric_props.csv_write"],
        "metric_props.check_W_s": total["metric_props.check_W"],
        "metric_props.check_W_checked": counts["metric_props.check_W.checked"],
        "metric_props.inject_s": total["metric_props.inject"],
        "metric_props.inject_modified": counts["metric_props.inject.modified"],
        "hashes.audit_s": total["hashes.audit"],
        "constructions.build_s": total["constructions.build"],
        "core.glue_s": total["core.glue"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "sanity.lp_wall_share": total["transport.solve"] / traced_raw,
    }
    assert set(m) == set(PER_LAYER)
    return m


def gridpoints_by_command(tr: spans.Tracer) -> dict[str, tuple[int, int]]:
    """(usable, attempted) threshold gridpoints per cluster command.

    Each gridpoint `tune_threshold` tries starts with one hypergraph
    build; it is usable when the clusterer returned and its error was
    scored.
    """
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i, s in enumerate(tr.spans):
        root = tr.root_of(i)
        parent = tr.spans[s.parent].name if s.parent >= 0 else ""
        if s.name == "clustering.build_hypergraph" and any(
                a.name == "clustering.tune_threshold" for a in tr.ancestors(i)):
            out[root.label][1] += 1
        if s.name == "clustering.error" and s.ok and parent == "clustering.tune_threshold":
            out[root.label][0] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


class Checker:
    """Compares outputs with the reference; counts operations and failures."""

    def __init__(self, run: wl.Run, reference: dict):
        self.run = run
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, step: wl.Step, out) -> None:
        self.attempted += 1
        if out is None:  # execute already recorded why
            self.failed += 1
            return
        want = wl.expected(self.reference, step, self.run.variant)
        why = "no reference recorded" if want is None else wl.compare(step.kind, out, want)
        if why:
            self.failed += 1
            self.run.failures.append(f"{step.label}: {why}")


# Set-up runs at least twice, and cheap set-ups repeat until this many
# seconds have passed, so their median rests on more samples.
SETUP_REPEATS = 2
SETUP_SECONDS = 3.0

# Wall time of `calibration_seconds` on the reference machine (the
# 2-core Xeon of README.md) in its faster phases.
CAL_REF_S = 0.16


def calibration_seconds() -> float:
    """Wall time of a fixed piece of interpreter and numpy work.

    It imports nothing from `mmot`, so a change to the program cannot
    move it; only the speed of the machine at that moment does.  The mix
    follows the workloads: dict and tuple work like the clustering and
    hash audits, and rank-one updates of a dense tableau like the simplex.
    """
    import numpy as np

    started = time.perf_counter()
    counts = {}
    for i in range(160_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    tableau = np.ones((48, 2048))
    row = np.linspace(0.0, 1.0, 2048)
    for r in range(600):
        tableau -= 1e-9 * np.outer(tableau[:, r % 48], row)
    return time.perf_counter() - started


class ScaledClock:
    """Times calls and scales each to the reference machine's speed.

    A calibration runs before and after every timed call; the call's wall
    time is multiplied by CAL_REF_S over the mean of the two.  On a shared
    2-core Xeon the speed of identical work drifts by a third over
    minutes, and the drift moves the calibration and the workload alike.
    """

    def __init__(self):
        calibration_seconds()  # warm-up, not used
        self.last = calibration_seconds()
        self.slowness: list[float] = []

    def time(self, fn, *args):
        """Returns (raw wall, scaled wall, result of fn(*args))."""
        started = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - started
        before, self.last = self.last, calibration_seconds()
        slowness = (before + self.last) / (2 * CAL_REF_S)
        self.slowness.append(slowness)
        return wall, wall / slowness, out


def _execute(run: wl.Run, step: wl.Step, tracer: spans.Tracer | None):
    if tracer is None:
        return wl.execute(run, step)
    with tracer.region("cli", step.label):
        return wl.execute(run, step)


def _iteration(steps: list[wl.Step], run: wl.Run, clock: ScaledClock,
               tracer: spans.Tracer | None = None):
    """One pass; returns (raw wall, scaled wall, scaled stage walls, outputs).

    The calibrations between commands run outside every span.
    """
    raw = scaled = 0.0
    stage = defaultdict(float)
    results = []
    for step in steps:
        wall, step_scaled, (_, out) = clock.time(_execute, run, step, tracer)
        raw += wall
        scaled += step_scaled
        stage[step.kind] += step_scaled
        results.append((step, out))
    return raw, scaled, dict(stage), results


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workroot: str, scale: wl.Scale = wl.FULL,
                 reference: dict | None = None) -> dict:
    """Run one workload; returns metrics, stage times and check results.

    `reference` defaults to the recorded file of the workload.
    """
    workload = wl.WORKLOADS[name]
    variant = seed % wl.VARIANTS
    if reference is None:
        with open(wl.reference_path(name)) as fh:
            reference = json.load(fh)
    clock = ScaledClock()

    def setup(workdir: str):
        wl.import_seconds()
        candidate = wl.Run(scale, workdir, variant)
        return candidate, workload.prepare(candidate)

    raw_setups, setups = [], []
    run = checker = None
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_SECONDS:
        workdir = os.path.join(workroot, f"setup{len(setups)}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        raw, scaled, (candidate, prepared) = clock.time(setup, workdir)
        raw_setups.append(raw)
        setups.append(scaled)
        if run is not None:
            shutil.rmtree(run.workdir, ignore_errors=True)
        run = candidate
        checker = Checker(run, reference)
        for step, out in prepared:
            checker.check(step, out)

    steps = workload.steps(run)
    raw_walls, walls, stages = [], [], defaultdict(list)
    layers = gridpoints = None
    if trace:
        untraced_raw, untraced, _, outputs = _iteration(steps, run, clock)
        tracer = spans.Tracer()
        with tracer.installed():
            traced_raw, traced, _, traced_outputs = _iteration(steps, run, clock, tracer)
        for step, out in outputs + traced_outputs:
            checker.check(step, out)
        layers = _layer_metrics(tracer, untraced, traced, traced_raw)
        gridpoints = gridpoints_by_command(tracer)
        raw_walls, walls = [untraced_raw], [untraced]
    else:
        loop_started = time.perf_counter()
        while True:
            raw, scaled, stage, outputs = _iteration(steps, run, clock)
            for step, out in outputs:
                checker.check(step, out)
            raw_walls.append(raw)
            walls.append(scaled)
            for key, val in stage.items():
                stages[key].append(val)
            elapsed = time.perf_counter() - loop_started
            if elapsed + elapsed / len(walls) > seconds:
                break

    solves = sum(len(out["values"]) for step, out in outputs
                 if step.kind == "distances" and out is not None)
    result = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "iterations": len(walls),
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "stages": {f"{k}_s": statistics.median(v) for k, v in stages.items()},
        "raw": {"wall_s": statistics.median(raw_walls),
                "setup_s": statistics.median(raw_setups),
                "slowness": statistics.median(clock.slowness)},
        "per_layer": layers,
        "gridpoints": gridpoints,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": list(run.failures),
    }
    if trace:
        result["sanity"] = sanity_lines(name, result, reference)
    if "distances_s" in result["stages"] and solves:
        result["stages"]["solves_per_s"] = solves / result["stages"]["distances_s"]
    shutil.rmtree(run.workdir, ignore_errors=True)
    return result


def sanity_lines(name: str, result: dict, reference: dict) -> list[tuple[str, bool]]:
    """Sanity claims of a traced run as (text, holds) pairs."""
    out = []
    layers = result["per_layer"]
    for metric, op, want in SANITY.get(name, ()):
        got = layers[metric]
        ok = got >= want if op == ">=" else got == want
        out.append((f"{metric} = {got:.4g} (expect {op} {want})", ok))
    for label, want in sorted(reference.get("gridpoints", {}).items()):
        got = list(result["gridpoints"].get(label, (0, 0)))
        out.append((f"{label} usable gridpoints {got[0]} of {got[1]} "
                    f"(expect {want[0]} of {want[1]})", got == want))
    return out
