"""Batch pipeline entry point.

Five subcommands wired through files so each stage is independently
runnable and the expensive mining stage can be cached across many
refinements: ingest, mine, signal, refine, synth. Reports go to stdout
or the output paths; timing and counts go to stderr.

Exit codes: 0 success, 1 domain/config error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import baskets, events, mining, signals, synth
from .errors import DomainError, ParseError
from .refine import DEFAULT_LIFT_THRESHOLD, rule_consequent
from .refine import refine as refine_signal
from .refine import report_to_dict, write_report_csv, write_report_json


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable with its default; the CLI exposes each as a flag."""

    min_left_support: float = mining.DEFAULT_MIN_LEFT_SUPPORT
    min_confidence: float = mining.DEFAULT_MIN_CONFIDENCE
    max_antecedent: int = mining.DEFAULT_MAX_ANTECEDENT
    lift_threshold: float = DEFAULT_LIFT_THRESHOLD
    window_start: int = signals.DEFAULT_WINDOW[0]
    window_end: int = signals.DEFAULT_WINDOW[1]
    exclusion_months: int = events.DEFAULT_EXCLUSION_MONTHS
    end_buffer_days: int = events.DEFAULT_END_BUFFER_DAYS
    min_active_months: int = events.DEFAULT_MIN_ACTIVE_MONTHS
    include_same_day: bool = False


DEFAULTS = PipelineConfig()


def _log(stage: str, **fields) -> None:
    parts = [f"stage={stage}"] + [f"{k}={v}" for k, v in fields.items()]
    print(" ".join(parts), file=sys.stderr)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _load_store(args) -> events.EventStore:
    t0 = time.perf_counter()
    store = events.load(args.patients, args.events)
    _log(
        "load",
        patients=store.patient_count,
        events=store.event_count,
        seconds=f"{time.perf_counter() - t0:.3f}",
    )
    return store


def _excluded_store(args) -> events.EventStore:
    store = _load_store(args)
    t0 = time.perf_counter()
    excluded = events.apply_prescription_exclusions(
        store, args.exclusion_months, args.end_buffer_days
    )
    _log(
        "exclusions",
        events=excluded.event_count,
        removed=store.event_count - excluded.event_count,
        seconds=f"{time.perf_counter() - t0:.3f}",
    )
    return excluded


def _load_spec(args) -> signals.SignalSpec:
    spec = signals.load_signal_spec(args.spec)
    if args.window_start is not None or args.window_end is not None:
        window = (
            args.window_start if args.window_start is not None else spec.window[0],
            args.window_end if args.window_end is not None else spec.window[1],
        )
        spec = dataclasses.replace(spec, window=window)
    return spec


def _read_rules(path: str) -> mining.RuleTable:
    if path.endswith(".json"):
        return mining.read_rules_json(path)
    return mining.read_rules_csv(path)


def cmd_ingest(args) -> int:
    store = _load_store(args)
    excluded = events.apply_prescription_exclusions(
        store, args.exclusion_months, args.end_buffer_days
    )
    # Mining takes its baskets from the full retained history, so count
    # eligibility there: this is the number of baskets `mine` builds.
    eligible = events.eligible_patients(store, args.min_active_months)
    _emit(
        {
            "patients": store.patient_count,
            "events": store.event_count,
            "events_after_exclusions": excluded.event_count,
            "eligible_patients": len(eligible),
        }
    )
    return 0


def cmd_mine(args) -> int:
    # Check the mining options and the outcome before the costly load.
    constraints = mining.MiningConstraints(
        args.min_left_support, args.min_confidence, args.max_antecedent
    )
    consequent = rule_consequent(signals.load_signal_spec(args.spec).hoi) if args.spec else None
    store = _load_store(args)
    t0 = time.perf_counter()
    db = baskets.build_database(store, args.min_active_months)
    _log("baskets", baskets=db.m, items=len(db.items), seconds=f"{time.perf_counter() - t0:.3f}")
    t0 = time.perf_counter()
    if consequent is not None:
        rules = mining.mine_rules(db, consequent, constraints)
    else:
        rules = mining.mine_all_rules(db, constraints)
    _log("mine", rules=len(rules), seconds=f"{time.perf_counter() - t0:.3f}")
    if args.out.endswith(".json"):
        mining.write_rules_json(rules, args.out)
    else:
        mining.write_rules_csv(rules, args.out)
    _emit({"rules": len(rules), "out": args.out})
    return 0


def cmd_signal(args) -> int:
    store = _excluded_store(args)
    spec = _load_spec(args)
    t0 = time.perf_counter()
    ab = signals.ab_ratio(spec, store)
    instances = signals.find_instances(spec, store)
    exposures = signals.exposure_count(spec.doi, store)
    _log("signal", instances=len(instances), seconds=f"{time.perf_counter() - t0:.3f}")
    signals.write_instances_csv(instances, args.out)
    _emit(
        {
            "hoi_code": str(spec.hoi),
            "after_count": ab.after_count,
            "before_count": ab.before_count,
            "ab_ratio": ab.ratio,
            "exposure_count": exposures,
            "instance_count": len(instances),
            "instances_out": args.out,
        }
    )
    return 0


def cmd_refine(args) -> int:
    store = _excluded_store(args)
    spec = _load_spec(args)
    rules = _read_rules(args.rules)
    instances = signals.read_instances_csv(args.instances) if args.instances else None
    t0 = time.perf_counter()
    report = refine_signal(
        spec,
        rules,
        store,
        instances=instances,
        lift_threshold=args.lift_threshold,
        include_same_day=args.include_same_day,
    )
    _log(
        "refine",
        instances=report.instance_count,
        expected=report.expected_count,
        seconds=f"{time.perf_counter() - t0:.3f}",
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(report, str(out / "report.json"))
    write_report_csv(report, str(out / "report.csv"))
    payload = report_to_dict(report)
    del payload["instances"]
    payload["out"] = str(out)
    _emit(payload)
    return 0


def cmd_synth(args) -> int:
    config = synth.load_scenario(args.spec)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    t0 = time.perf_counter()
    summary = synth.generate(config, args.out)
    _log(
        "synth",
        patients=summary["patients"],
        events=summary["events"],
        seconds=f"{time.perf_counter() - t0:.3f}",
    )
    _emit({k: v for k, v in summary.items() if k != "config"})
    return 0


def _add_cohort_files(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patients", required=True, help="patients.csv path")
    p.add_argument("--events", required=True, help="events.csv path")


def _add_exclusions(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exclusion-months", type=int, default=DEFAULTS.exclusion_months,
                   help="months of prescriptions dropped after registration")
    p.add_argument("--end-buffer-days", type=int, default=DEFAULTS.end_buffer_days,
                   help="days of prescriptions dropped before the database end")


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-start", type=int, default=None,
                   help=f"override window start day (spec default {DEFAULTS.window_start})")
    p.add_argument("--window-end", type=int, default=None,
                   help=f"override window end day (spec default {DEFAULTS.window_end})")


def _add_min_active_months(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-active-months", type=int, default=DEFAULTS.min_active_months,
                   help="activity span required for mining eligibility")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adrrefine",
        description="Mine association rules from patient histories and refine "
        "drug-outcome signals into confounding-adjusted risks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = add("ingest", "load cohort files, print event and mining-eligibility counts", cmd_ingest)
    _add_cohort_files(p)
    _add_exclusions(p)
    _add_min_active_months(p)

    p = add("mine", "mine association rules from patient baskets", cmd_mine)
    _add_cohort_files(p)
    p.add_argument("--out", required=True, help="rules output (.csv or .json)")
    p.add_argument("--spec", default=None,
                   help="optional signal spec JSON; restricts mining to the outcome's consequent")
    p.add_argument("--min-left-support", type=float, default=DEFAULTS.min_left_support,
                   help="minimum antecedent support")
    p.add_argument("--min-confidence", type=float, default=DEFAULTS.min_confidence,
                   help="minimum rule confidence")
    p.add_argument("--max-antecedent", type=int, default=DEFAULTS.max_antecedent,
                   help="largest antecedent size")
    _add_min_active_months(p)

    p = add("signal", "score a drug-outcome signal and list its instances", cmd_signal)
    _add_cohort_files(p)
    p.add_argument("--spec", required=True, help="signal spec JSON path")
    p.add_argument("--out", required=True, help="instances.csv output path")
    _add_window(p)
    _add_exclusions(p)

    p = add("refine", "filter signal instances and report adjusted risk", cmd_refine)
    _add_cohort_files(p)
    p.add_argument("--rules", required=True, help="mined rules file (.csv or .json)")
    p.add_argument("--spec", required=True, help="signal spec JSON path")
    p.add_argument("--out", required=True, help="output directory for report.json/report.csv")
    p.add_argument("--instances", default=None,
                   help="optional instances.csv; skips in-store instance detection")
    p.add_argument("--lift-threshold", type=float, default=DEFAULTS.lift_threshold,
                   help="rule lift above which a matched instance is expected")
    p.add_argument("--include-same-day", action="store_true",
                   default=DEFAULTS.include_same_day,
                   help="count items recorded on the outcome day as prior history")
    _add_window(p)
    _add_exclusions(p)

    p = add("synth", "generate a synthetic cohort with ground-truth labels", cmd_synth)
    p.add_argument("--spec", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
