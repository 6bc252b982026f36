"""Steadiness check: run one workload k times and compare spreads to bounds.

Each run gets its own seed.  For every end-to-end metric the script prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median`` and the metric's bound from
``BENCHMARK.json``.  ``steady`` means the spread is under a third of the
bound; ``within`` means it is under the bound itself.

    python3 perfbench/steady.py --workload corpus-churn --runs 10 --first-seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect run {result}")
    return result, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls = []
    for index in range(args.runs):
        seed = args.first_seed + index
        result, wall = run_once(args.workload, seed, spec["run_seconds"])
        walls.append(wall)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f}s " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, wall per run median {statistics.median(walls):.1f}s")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        print(f"{name:<34}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>8.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
