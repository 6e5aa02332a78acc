"""Run a workload over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload wd-spectral --seeds 1-10 [--trace 0]

Each run measures for the `run_seconds` of BENCHMARK.json.
For every metric of the final JSON line it prints the median, the
quartile spread (Q3 - Q1) as a share of the median, as Python's
`statistics.quantiles(values, n=4)` gives the quartiles, and the largest
value as the tail with the number of runs.  Runs are sequential, one
process at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    bad = 0
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        ok = done.returncode == 0 and result.get("correct") is True
        bad += not ok
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result.get("metrics", {}).items()
                         if args.trace == "0")
        print(f"seed {seed}: exit {done.returncode} correct {result.get('correct')} "
              f"failed {result.get('failed')}/{result.get('attempted')} {shown}", flush=True)
        if not ok:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{args.workload} {name}: median {med:.6g} {units[name]}  "
              f"spread {spread:.2%}  max {max(vals):.6g} (n={len(vals)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
