"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``hostbench/run.py --trace 0`` at ``BENCHMARK.json``'s
``run_seconds`` once per seed, one run at a time, and prints for each
end-to-end metric the median and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the bound ``BENCHMARK.json`` fixes::

    python3 hostbench/stability.py --workload farm --seeds 1-10

Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "hostbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        print(f"{name:32s} median {statistics.median(vals):12.6g}  "
              f"spread {spread(vals):7.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
