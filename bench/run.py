"""The repository benchmark: one workload run, checked, with its metrics.

    python3 bench/run.py --workload cohort|wide|screen --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The run makes its inputs from the
seed in a set-up process, measures whole pipeline passes for about
`--seconds` in a fresh pipeline process, checks every pass's outputs, and
prints as its last line one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones listed
in BENCHMARK.json, with `--trace 1` the per-layer ones. The line before it
records the run's environment, sizes, notes and failures; the same record
goes to `.bench_out/`, and a traced run's spans go beside it.

- `wall_s`: mean seconds of one pass, from the workload's input to its
  complete result; set-up excluded.
- `signal_s`: mean seconds of one `refine` call on a loaded store with
  mined rules (cohort, screen); wide has no refine, so there it is one
  `mine_rules` call, the cost of mining one more outcome.
- `peak_rss_mb`: peak RSS of the pipeline process. Set-up is timed in
  separate processes, so it holds none of the set-up's memory, except
  that for wide it holds the in-memory corpus, which is the pipeline's
  input (cohort and screen read CSV files).
- `setup_s`: median of the set-ups timed in one process before the
  passes and one after them, three each: synth plus CSV writing
  (cohort, screen) or building the corpus (wide).

`error_rate` is `failed / attempted`; it is not a metric because it is 0
on a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cohort", "wide", "screen")
# Both child processes together must end within this many seconds, which
# leaves room under the 180 s limit for the parent's own work.
CHILDREN_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def commit_id() -> str:
    """The checkout's commit when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run bench/pipeline.py to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for pipeline.py {args[0]}")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "pipeline.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline.py {args[0]} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adrrefine benchmark run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for needed in ("src/adrrefine/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found; run from the root of a source checkout")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]
    import numpy
    from adrrefine import synth
    from workloads import WORKLOADS as DEFINED

    workload = DEFINED[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    # Mining gets one worker per usable core, and native thread pools are
    # capped at the same number so a native kernel cannot oversubscribe.
    # A fixed hash seed keeps set iteration order, and so the work done,
    # the same from run to run.
    workers = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: str(workers) for var in THREAD_VARS})

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work_dir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(seed), "--dir", str(work_dir)]
    deadline = time.monotonic() + CHILDREN_TIMEOUT_S
    try:
        setup = child(["setup", *common], env, deadline)
        result = child(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workers", str(workers)],
            env,
            deadline,
        )
        if not args.trace:
            # Set up again after the passes: the host's speed drifts over
            # tens of seconds, so samples from both ends of the run steady
            # the median.
            setup["setup_times"] += child(["setup", *common], env, deadline)["setup_times"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setup_times = setup["setup_times"]
    metrics = dict(result.pop("metrics"))
    if args.trace:
        # Only synth makes event rows; wide's corpus is built without it.
        metrics["synth.generate_s"] = statistics.median(setup_times) if setup["rows"] else 0.0
        metrics["synth.rows"] = setup["rows"]
    else:
        metrics["setup_s"] = statistics.median(setup_times)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics missing from the run: {missing}")

    spans = result.pop("spans", None)
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    if spans is not None:
        (out_dir / f"spans-{tag}.json").write_text(json.dumps(spans))
    record = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": workload.sizes,
        "workers": workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "generator": synth.GENERATOR_ID,
        "setup_times": setup_times,
        "error_rate": result["failed"] / result["attempted"],
        **result,
        "metrics": metrics,
    }
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
