#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/steadiness.py --workload stop-go --runs 10 [--first-seed 1]

For each end-to-end metric: the median of the runs and the spread, the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A metric is steady when its spread is
below a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(q3 - q1) / median of the values, quartiles as
    statistics.quantiles(values, n=4) gives them; inf for a zero median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True)
        took = time.monotonic() - start
        last = done.stdout.strip().splitlines()[-1:] or ["{}"]
        result = json.loads(last[0]) if done.returncode == 0 else {}
        print(f"seed {seed}: exit {done.returncode}, {took:.1f}s, "
              f"correct={result.get('correct')} failed={result.get('failed')}",
              flush=True)
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    worst = 0.0
    print(f"\n{'metric':28} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            print(f"{m['name']:28} {'-':>14}")
            continue
        s = spread(v)
        third = m.get("bound", 0) / 3
        flag = ""
        if "bound" in m and s >= third:
            flag = "  UNSTEADY"
            worst = max(worst, s / third)
        print(f"{m['name']:28} {statistics.median(v):14.6g} {s:8.3f} "
              f"{third:8.3f}{flag}")
    return 1 if worst > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
