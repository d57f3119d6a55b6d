"""One workload run inside a fresh process; started by `bench/run.py`.

    python3 bench/pipeline.py setup   --workload W --seed N --dir D
    python3 bench/pipeline.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --workers K

`setup` makes the inputs `SETUP_REPEATS` times and reports each time.
`measure` repeats whole pipeline passes for about `--seconds`, checks the
first pass's outputs in full and every later pass against the first, and
prints one JSON object. With `--trace 1`, untraced and traced passes
alternate; per-layer metrics are medians over the traced ones.

`wall_s` and `signal_s` are means over the run's untraced passes and
calls, not medians. On a shared host the CPU can run a whole pass in a
fast or a markedly slower state; a median within a run then jumps
between the two states from run to run, while the mean weighs them by
the time spent in each. Across runs, take medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed, Ops  # noqa: E402

# Set-up is timed this many times per `setup` call. run.py calls it
# before and after `measure` and reports the median of all the times.
SETUP_REPEATS = 3


def layer_metrics(tracer: Tracer, facts: dict, wall: float, all_consequents: bool) -> dict:
    """Per-layer metrics of one traced pass."""
    rows = facts.get("rows", 0)
    load_s = tracer.covered("events.load")
    parse_calls = tracer.calls["codes.parse_calls"]
    mine_s = tracer.covered("mining.mine")
    frequent_s = tracer.covered("mining.frequent")
    levels = tracer.levels
    n_items = facts["items"]
    tried = sum(n * ((n_items - k) if all_consequents else 1) for k, n in levels.items())
    refines = tracer.count("refine.refine")
    instances = facts["instances"]
    return {
        "events.load_s": load_s,
        "events.rows": rows,
        "events.rows_per_s": rows / load_s if load_s else 0.0,
        "events.exclusions_s": tracer.covered("events.exclusions"),
        "events.excluded_rows": facts.get("excluded_rows", 0),
        "events.eligible_s": tracer.covered("events.eligible"),
        "codes.parse_calls": parse_calls,
        "codes.parse_per_row": parse_calls / rows if rows else 0.0,
        "baskets.build_s": tracer.covered("baskets.build", "baskets.index"),
        "baskets.m": facts["m"],
        "baskets.items": n_items,
        "baskets.nnz": facts["nnz"],
        "baskets.index_mb": facts["index_mb"],
        "baskets.pre_outcome_calls": tracer.calls["baskets.pre_outcome"],
        "baskets.pre_outcome_s": tracer.busy["baskets.pre_outcome"],
        "mining.mine_s": mine_s,
        "mining.frequent_s": frequent_s,
        "mining.emit_s": mine_s - frequent_s,
        "mining.antecedents.l1": levels[1],
        "mining.antecedents.l2": levels[2],
        "mining.antecedents.l3": levels[3],
        "mining.rules": facts["rules"],
        "mining.rule_yield": facts["rules"] / tried if tried else 0.0,
        "mining.rss_growth_mb": sum(
            s.rss_growth or 0 for s in tracer.spans if s.name == "mining.mine"
        ) / 2**20,
        "mining.rules_write_s": tracer.covered("mining.rules_write"),
        "mining.rules_read_s": tracer.covered("mining.rules_read"),
        "mining.rules_file_mb": facts.get("rules_file_mb", 0.0),
        "signals.exposure_s": tracer.covered("signals.exposure"),
        "signals.instances_s": tracer.covered("signals.instances"),
        "signals.ab_ratio_s": tracer.covered("signals.ab_ratio"),
        "signals.calls_per_signal": (
            sum(tracer.count(n) for n in ("signals.exposure", "signals.instances", "signals.ab_ratio"))
            / refines
            if refines
            else 0.0
        ),
        "signals.exposed": facts["exposed"],
        "signals.instances": instances,
        "refine.self_s": tracer.self_time("refine.refine"),
        "refine.assess_s": tracer.covered("refine.assess"),
        "refine.hoi_rules": facts["hoi_rules"],
        "refine.rule_checks": facts["rule_checks"],
        "refine.matched_ratio": facts["matched"] / instances if instances else 0.0,
        "refine.expected_ratio": facts["expected"] / instances if instances else 0.0,
        "refine.report_write_s": tracer.covered("refine.report_write"),
        "trace.uncovered_s": wall - tracer.covered(*{name for _, _, name in SPANS}),
    }


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    work_dir = Path(args.dir)
    inputs = workload.open(args.seed, work_dir)

    planned = workload.planned_ops()
    walls = {False: [], True: []}
    signal_times, mine_times, layer_samples, span_dump = [], [], [], []
    attempted, failures, notes, absent = 0, {}, {}, set()
    reference = None
    t_begin = time.perf_counter()
    n_pass = 0
    while True:
        traced = bool(args.trace) and n_pass % 2 == 1
        n_pass += 1
        gc.collect()
        tracer = Tracer() if traced else None
        ops = Ops()
        if tracer:
            tracer.install()
        try:
            result = workload.run_pass(inputs, args.workers, ops, tracer, work_dir)
        except OpFailed:
            result = None
        finally:
            if tracer:
                tracer.uninstall()
        if result is not None:
            walls[traced].append(result.wall)
            if not traced:
                signal_times.extend(result.signal_times)
                mine_times.append(result.mine_s)
            prints = workload.fingerprints(result.outputs)
            if reference is None:
                workload.check(result.outputs, inputs, args.seed, ops, notes)
                reference = prints
            else:
                for label, value in prints.items():
                    if reference.get(label) != value:
                        ops.fail(label, "output differs from the first pass")
            if tracer:
                facts = workload.facts(result.outputs)
                layer_samples.append(
                    layer_metrics(tracer, facts, result.wall, workload.all_consequents)
                )
                absent.update(tracer.absent)
                span_dump.append(
                    {"pass": n_pass, "spans": tracer.to_records(), "calls": dict(tracer.calls)}
                )
        result = None
        for label in planned:
            attempted += 1
            if label in ops.failed or label not in ops.done:
                failures[f"pass {n_pass} {label}"] = ops.failed.get(
                    label, "not run: an earlier operation failed"
                )
        # Stop when one more pass would end more than half a pass after
        # the deadline, so a run measures close to `--seconds`.
        elapsed = time.perf_counter() - t_begin
        if elapsed + elapsed / n_pass / 2 >= args.seconds and (not args.trace or n_pass >= 2):
            break

    if not walls[False] or (args.trace and not walls[True]):
        raise SystemExit("no pass completed; failures: " + json.dumps(failures)[:2000])
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": dict(list(failures.items())[:20]),
        "notes": notes,
        "passes": {"untraced": walls[False], "traced": walls[True]},
    }
    if not args.trace:
        out["metrics"] = {
            "wall_s": statistics.fmean(walls[False]),
            "signal_s": statistics.fmean(signal_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return out

    metrics = {
        name: statistics.median(sample[name] for sample in layer_samples)
        for name in layer_samples[0]
    }
    metrics["trace.overhead_ratio"] = statistics.fmean(walls[True]) / statistics.fmean(walls[False])
    w1 = workload.single_worker_mine_s(inputs)
    metrics["mining.mine_s.w1"] = w1 or 0.0
    metrics["mining.parallel_eff"] = (
        w1 / (args.workers * statistics.fmean(mine_times)) if w1 else 0.0
    )
    out["metrics"] = metrics
    out["absent"] = sorted(absent)
    out["spans"] = span_dump
    return out


def setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    times, summary = [], None
    for _ in range(SETUP_REPEATS):
        summary = None
        gc.collect()
        t0 = time.perf_counter()
        summary = workload.setup(args.seed, Path(args.dir))
        times.append(time.perf_counter() - t0)
    # synth reports the event rows it wrote; wide's corpus has none.
    return {"setup_times": times, "rows": summary.get("events", 0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    # measure only; run.py always passes them.
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)
    if args.mode == "measure" and None in (args.seconds, args.trace, args.workers):
        parser.error("measure needs --seconds, --trace and --workers")
    result = setup(args) if args.mode == "setup" else measure(args)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
