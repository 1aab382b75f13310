"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload dna-vector --seeds 1-10

Runs ``BENCHMARK.json``'s command once per seed, one run at a time, and
prints for each end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound.  A metric whose spread
is not below a third of its bound is flagged ``UNSTEADY``.  Exits 1 if
any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        command = [
            *config["command"],
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=180
        )
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in row.items()))
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    print(f"{args.workload}: {len(next(iter(values.values())))} runs")
    for metric in config["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  UNSTEADY"
        print(
            f"  {metric['name']:14s} median {median:.4g} q1 {q1:.4g} "
            f"q3 {q3:.4g} spread {spread:.3f} bound {metric['bound']}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
