"""Record the output references the benchmark checks every run against.

    python3 perfbench/record.py [workload ...]

Runs each workload's set-up once, every timed command once, and every
seeded command once per variant, then writes
perfbench/references/<workload>.json.  References describe the program
at the commit they were recorded on; re-record only when a change is
meant to alter outputs, and say so.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def record(name: str, workdir: str, scale: wl.Scale = wl.FULL) -> dict:
    """Outputs of every command for every variant, plus gridpoint counts."""
    workload = wl.WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    run = wl.Run(scale, workdir, 0)
    fixed, variants = {}, {}
    for step, out in workload.prepare(run):
        fixed[step.label] = out
    tracer = spans.Tracer()
    with tracer.installed():
        for step in workload.steps(run):
            with tracer.region("cli", step.label):
                _, out = wl.execute(run, step)
            (variants.setdefault("0", {}) if step.seeded else fixed)[step.label] = out
    for variant in range(1, wl.VARIANTS):
        run.variant = variant
        for step in workload.steps(run):
            if step.seeded:
                _, out = wl.execute(run, step)
                variants.setdefault(str(variant), {})[step.label] = out
    if run.failures:
        raise RuntimeError(f"{name}: commands failed while recording: {run.failures}")
    gridpoints = harness.gridpoints_by_command(tracer)
    return {
        "workload": name,
        "machine": harness.machine_block(ROOT),
        "fixed": fixed,
        "variants": variants,
        "gridpoints": {label: list(v) for label, v in sorted(gridpoints.items())},
    }


def main(names: list[str]) -> int:
    os.makedirs(os.path.join(HERE, "references"), exist_ok=True)
    for name in names or sorted(wl.WORKLOADS):
        workdir = os.path.join(ROOT, ".perfbench_work", f"record-{name}")
        try:
            ref = record(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        with open(wl.reference_path(name), "w") as fh:
            json.dump(ref, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{name}: recorded {len(ref['fixed'])} fixed and "
              f"{sum(len(v) for v in ref['variants'].values())} seeded outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
