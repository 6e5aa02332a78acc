"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mmot-desk --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from `src/`.
Lines before the last are for people: the machine block, every metric
by name with its unit, and any failed check.  The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is nonzero when any output check fails.
"""
from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "mmot")):
        print(f"error: no mmot sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workroot = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass

    print("machine " + json.dumps(harness.machine_block(ROOT), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} variant {result['variant']} "
          f"iterations {result['iterations']}")
    if args.trace:
        units = harness.PER_LAYER
        metrics = result["per_layer"]
        for text, ok in result["sanity"]:
            print(f"sanity {'PASS' if ok else 'FAIL'} {text}")
    else:
        units = harness.END_TO_END
        metrics = result["end_to_end"]
        for name, value in sorted(result["stages"].items()):
            unit = "1/s" if name == "solves_per_s" else "s"
            print(f"stage {name} {value:.6g} {unit}")
        frac = result["failed"] / result["attempted"]
        print(f"stage failed_frac {frac:.6g} ratio")
        raw = result["raw"]
        print(f"unscaled wall_s {raw['wall_s']:.6g} s setup_s {raw['setup_s']:.6g} s "
              f"slowness {raw['slowness']:.4g}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for line in result["failures"]:
        print(f"FAILED {line}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
