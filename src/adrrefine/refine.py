"""Signal-instance refinement and the confounding-adjusted risk.

Each signal instance is matched against the outcome's association rules:
a rule matches when its whole antecedent appears in the patient's
pre-outcome history (all instances of a signal are matched at once). An
instance with a matched rule of lift above the threshold has a plausible
alternative cause, is classed "expected", and is excluded from the
adjusted risk numerator. Confidence and chi-squared maxima are carried
through as diagnostics only; they never filter.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

# `pre_outcome_basket` is not called here; bench/spans.py wraps it by this module's name.
from .baskets import pre_outcome_basket, pre_outcome_items
from .codes import READ_NORMALIZE_LEVEL, Item, ReadCode, code_item, read_level
from .errors import ConfigError, DomainError, check_integers
from .events import EventStore
from .mining import AssociationRule, RuleTable
from .signals import (
    SignalInstance,
    SignalSpec,
    ab_ratio,
    exposure_count,
    find_instances,
)

DEFAULT_LIFT_THRESHOLD = 1.0


@dataclass(frozen=True)
class InstanceAssessment:
    instance: SignalInstance
    matched_rule_count: int
    max_confidence: float
    max_lift: float
    max_chi_squared: float
    expected: bool


# report.json holds these fields in this order, after `signal` and before
# `instances`; each instance lists its `SignalInstance` fields, then
# `InstanceAssessment`'s own.
@dataclass(frozen=True)
class SignalReport:
    spec: SignalSpec
    exposure_count: int
    instance_count: int
    matched_count: int
    expected_count: int
    absolute_risk: float
    adjusted_risk: float
    avg_max_confidence_all: float
    avg_max_chi_all: float
    avg_max_confidence_matched: float
    avg_max_chi_matched: float
    hoi_rule_count: int
    ab_ratio: float
    matched_averages_defined: bool
    assessments: tuple[InstanceAssessment, ...]


def rule_consequent(hoi_query: ReadCode) -> Item:
    """The rule consequent that stands for an outcome query: its mining item.

    Mining normalizes diagnosis items to `READ_NORMALIZE_LEVEL`, so a
    deeper query is refined through its ancestor's rules at that level. A
    coarser query has no rules of its own, so it is rejected rather than
    left unadjusted.
    """
    if read_level(hoi_query) < READ_NORMALIZE_LEVEL:
        raise DomainError(
            f"outcome query {hoi_query} is above level {READ_NORMALIZE_LEVEL}; "
            f"rules exist only for level-{READ_NORMALIZE_LEVEL} outcomes"
        )
    return code_item(hoi_query)


def extract_hoi_rules(
    rules: Iterable[AssociationRule], hoi_query: ReadCode
) -> RuleTable:
    """Rules whose consequent is `rule_consequent(hoi_query)`, as a table
    over the same vocabulary, in the same row order."""
    target = rule_consequent(hoi_query)
    table = RuleTable.from_rules(rules)
    # Items are distinct, so at most one id is the target's; -1 is no row's.
    k = next((k for k, it in enumerate(table.items) if it == target), -1)
    return table[np.flatnonzero(table.consequent == k)]


def _check_threshold(lift_threshold: float) -> None:
    """A ConfigError unless the lift threshold is a real number, not NaN."""
    if isinstance(lift_threshold, bool) or not isinstance(lift_threshold, Real):
        raise ConfigError(f"lift_threshold must be a number: {lift_threshold!r}")
    if math.isnan(lift_threshold):
        raise ConfigError("lift_threshold must be a number, not NaN")


# Match cells per block of instances in `assess_instances`, one byte each.
_MATCH_BYTES = 1 << 24


def assess_instances(
    store: EventStore,
    instances: Sequence[SignalInstance],
    hoi_rules: Iterable[AssociationRule],
    include_same_day: bool = False,
    lift_threshold: float = DEFAULT_LIFT_THRESHOLD,
) -> tuple[InstanceAssessment, ...]:
    """Match each instance's gender item and pre-outcome history against
    the outcome rules. Maxima over the matched rules' confidence, lift,
    and chi-squared are reported, all zero when nothing matches; only a
    matched instance whose max lift exceeds the threshold is expected.

    Instances are matched a block at a time, `_MATCH_BYTES` instance and
    rule cells a block. A block's match matrix, one byte per instance and
    rule, is the AND of the instances' item flags gathered by one
    antecedent column at a time. Its set cells, taken in row-major order,
    list each matched instance's rules together, so one
    `np.maximum.reduceat` over those rules' measures gives every matched
    instance's three maxima; no float cell is spent on an unmatched pair,
    and an unmatched instance keeps 0.0. A lift threshold that is not a
    number, or is NaN, is a ConfigError."""
    _check_threshold(lift_threshold)
    rules = RuleTable.from_rules(hoi_rules)
    pids = [inst.patient_id for inst in instances]
    hist, item = pre_outcome_items(store, pids, [i.hoi_date for i in instances], include_same_day)
    # Member columns: the rule vocabulary, one for the items no rule
    # holds, and a last one, always set, that the -1 pad reads.
    column = {it.token: k for k, it in enumerate(rules.items)}
    other = len(rules.items)
    item_column = [column.get(it.token, other) for it in store.columns.codes.mining_items]
    member = np.zeros((len(pids), other + 2), dtype=bool)
    member[hist, np.array(item_column, np.intp)[item]] = True
    member[:, -1] = True

    measures = np.stack([rules.confidence, rules.lift, rules.chi_squared])
    count = np.zeros(len(pids), dtype=np.int64)
    best = np.zeros((len(measures), len(pids)))
    step = max(1, _MATCH_BYTES // max(1, len(rules)))
    for lo in range(0, len(pids), step):
        block = slice(lo, lo + step)
        count[block], best[:, block] = _block_maxima(member[block], rules.antecedent, measures)
    expected = (count > 0) & (best[1] > lift_threshold)
    fields = zip(count.tolist(), *best.tolist(), expected.tolist())
    return tuple(InstanceAssessment(inst, *f) for inst, f in zip(instances, fields))


def _block_maxima(
    member: np.ndarray, antecedent: np.ndarray, measures: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `member`, the number of rules (antecedent rows) whose
    every item column it holds, and each `measures` row's maximum over
    those rules, 0.0 when there are none."""
    matched = member[:, antecedent[:, 0]]
    for column in antecedent.T[1:]:
        matched &= member[:, column]
    at, rule = np.nonzero(matched)
    count = np.bincount(at, minlength=len(member))
    best = np.zeros((len(measures), len(member)))
    if len(rule):
        has = np.flatnonzero(count)
        starts = (np.cumsum(count) - count)[has]
        best[:, has] = np.maximum.reduceat(measures[:, rule], starts, axis=1)
    return count, best


def assess_instance(
    store: EventStore,
    instance: SignalInstance,
    hoi_rules: Iterable[AssociationRule],
    include_same_day: bool = False,
    lift_threshold: float = DEFAULT_LIFT_THRESHOLD,
) -> InstanceAssessment:
    """`assess_instances` for one instance."""
    return assess_instances(store, [instance], hoi_rules, include_same_day, lift_threshold)[0]


def absolute_risk(instance_count: int, exposures: int) -> float:
    check_integers("risk counts", instance_count, exposures)
    if exposures <= 0:
        raise DomainError("risk is undefined with zero exposures")
    return instance_count / exposures


def adjusted_risk(instance_count: int, expected_count: int, exposures: int) -> float:
    """Unexpected instances over exposed patients."""
    check_integers("risk counts", instance_count, expected_count)
    if not 0 <= expected_count <= instance_count:
        raise DomainError(f"expected_count {expected_count} outside [0, {instance_count}]")
    return absolute_risk(instance_count - expected_count, exposures)


def refine(
    spec: SignalSpec,
    rules: Iterable[AssociationRule],
    store: EventStore,
    instances: list[SignalInstance] | None = None,
    exposures: int | None = None,
    lift_threshold: float = DEFAULT_LIFT_THRESHOLD,
    include_same_day: bool = False,
) -> SignalReport:
    """Assess every instance of a signal and aggregate the refined risk.

    Instances and the exposure denominator are derived from the store
    unless supplied, so externally listed instances (or given counts)
    can be pushed through the same arithmetic. A `lift_threshold` that is
    not a number, or is NaN, is a ConfigError, and given `exposures` that
    are not an integer a DomainError, each raised before the store is read.
    """
    _check_threshold(lift_threshold)
    hoi_rules = extract_hoi_rules(rules, spec.hoi)
    if exposures is None:
        exposures = exposure_count(spec.doi, store)
    check_integers("risk counts", exposures)
    if exposures <= 0:
        raise DomainError("no patients exposed to the drug family; risk undefined")
    if instances is None:
        instances = find_instances(spec, store)
    assessments = assess_instances(store, instances, hoi_rules, include_same_day, lift_threshold)

    n = len(assessments)
    matched = [a for a in assessments if a.matched_rule_count > 0]
    expected_count = sum(1 for a in assessments if a.expected)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    ab = ab_ratio(spec, store)
    return SignalReport(
        spec=spec,
        exposure_count=exposures,
        instance_count=n,
        matched_count=len(matched),
        expected_count=expected_count,
        absolute_risk=absolute_risk(n, exposures),
        adjusted_risk=adjusted_risk(n, expected_count, exposures),
        avg_max_confidence_all=mean(a.max_confidence for a in assessments),
        avg_max_chi_all=mean(a.max_chi_squared for a in assessments),
        avg_max_confidence_matched=mean(a.max_confidence for a in matched),
        avg_max_chi_matched=mean(a.max_chi_squared for a in matched),
        hoi_rule_count=len(hoi_rules),
        ab_ratio=ab.ratio,
        matched_averages_defined=bool(matched),
        assessments=assessments,
    )


def _fields(record, skip: tuple[str, ...] = ()) -> dict:
    """A dataclass's fields in declared order, less `skip`, with dates in
    ISO form; a nested dataclass is left as it is."""
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}
    return {k: v.isoformat() if isinstance(v, dt.date) else v for k, v in values.items()}


def report_to_dict(report: SignalReport) -> dict:
    spec = report.spec
    signal = {"name": spec.name, "doi_items": sorted(str(c) for c in spec.doi),
              "hoi_code": str(spec.hoi), "window": list(spec.window)}
    instances = [_fields(a.instance) | _fields(a, ("instance",)) for a in report.assessments]
    return {"signal": signal, **_fields(report, ("spec", "assessments")), "instances": instances}


def write_report_json(report: SignalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=1)
        fh.write("\n")


def write_report_csv(report: SignalReport, path: str) -> None:
    """One summary row: outcome, query code, ab ratio, instance count,
    absolute risk, and the confounding-adjusted risk."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["hoi", "read_code", "ab_ratio", "instances", "risk", "confounding_adjusted_risk"]
        )
        writer.writerow(
            [
                report.spec.label,
                str(report.spec.hoi),
                f"{report.ab_ratio:.12g}",
                report.instance_count,
                f"{report.absolute_risk:.12g}",
                f"{report.adjusted_risk:.12g}",
            ]
        )
