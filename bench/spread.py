"""Run one workload over several seeds and summarise each metric.

    python3 bench/spread.py --workload cohort --seeds 1 2 3 4 5

Runs `bench/run.py --trace 0` once per seed, one after another, for its
default `run_seconds` of BENCHMARK.json, and prints for every end-to-end
metric its median, first and third quartiles (`statistics.quantiles(
values, n=4)`) and the spread: the distance between the quartiles as a
share of the median, compared with a third of the metric's bound. Exits
1 if a run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    contract = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        line = {"seed": seed, "correct": result["correct"], "failed": result["failed"],
                "attempted": result["attempted"]}
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line[name] = metric["value"]
        print(json.dumps(line), flush=True)

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary = {"metric": name, "n": len(vals), "median": median, "q1": q1, "q3": q3,
                   "spread": spread, "bound": bounds[name],
                   "within_third_of_bound": spread < bounds[name] / 3}
        print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
