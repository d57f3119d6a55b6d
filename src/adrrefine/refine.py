"""Signal-instance refinement and the confounding-adjusted risk.

Each signal instance is matched against the outcome's association rules:
a rule matches when its whole antecedent appears in the patient's
pre-outcome basket. An instance with a matched rule of lift above the
threshold has a plausible alternative cause, is classed "expected", and
is excluded from the adjusted risk numerator. Confidence and chi-squared
maxima are carried through as diagnostics only; they never filter.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .baskets import pre_outcome_basket
from .codes import Item, ItemKind, ReadCode, read_level, read_truncate
from .errors import ConfigError, DomainError, check_workers
from .events import EventStore
from .mining import AssociationRule, RuleTable
from .signals import (
    AbResult,
    SignalInstance,
    SignalSpec,
    ab_ratio,
    exposure_count,
    find_instances,
)

DEFAULT_LIFT_THRESHOLD = 1.0
RULE_CONSEQUENT_LEVEL = 3


@dataclass(frozen=True)
class InstanceAssessment:
    instance: SignalInstance
    matched_rule_count: int
    max_confidence: float
    max_lift: float
    max_chi_squared: float
    expected: bool


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
    """The rule consequent that stands for an outcome query: its level-3 form.

    Mining normalizes diagnosis items to level 3, so a deeper query is
    refined through its level-3 ancestor's rules. A coarser query has no
    rules of its own, so it is rejected rather than left unadjusted.
    """
    if read_level(hoi_query) < RULE_CONSEQUENT_LEVEL:
        raise DomainError(
            f"outcome query {hoi_query} is above level {RULE_CONSEQUENT_LEVEL}; "
            f"rules exist only for level-{RULE_CONSEQUENT_LEVEL} outcomes"
        )
    return Item(ItemKind.READ, str(read_truncate(hoi_query, RULE_CONSEQUENT_LEVEL)))


def extract_hoi_rules(
    rules: Iterable[AssociationRule], hoi_query: ReadCode
) -> RuleTable:
    """Rules whose consequent is `rule_consequent(hoi_query)`."""
    target = rule_consequent(hoi_query)
    table = RuleTable.from_rules(rules)
    ids = [k for k, it in enumerate(table.items) if it == target]
    return table[np.isin(table.consequent, ids)]


def assess_instance(
    store: EventStore,
    instance: SignalInstance,
    hoi_rules: Iterable[AssociationRule],
    include_same_day: bool = False,
    lift_threshold: float = DEFAULT_LIFT_THRESHOLD,
) -> InstanceAssessment:
    """Match one instance's pre-outcome history against the outcome rules.

    Maxima over the matched rules' confidence, lift, and chi-squared are
    reported; all zero when nothing matches.
    """
    rules = RuleTable.from_rules(hoi_rules)
    basket = pre_outcome_basket(
        store, instance.patient_id, instance.hoi_date, include_same_day
    )
    # Basket membership per vocabulary id; the last entry, read through
    # the -1 pad, counts as present.
    member = np.array([it in basket for it in rules.items] + [True])
    matched = member[rules.antecedent].all(axis=1)
    if matched.any():
        max_lift = max(rules.lift[matched].tolist())
        return InstanceAssessment(
            instance=instance,
            matched_rule_count=int(matched.sum()),
            max_confidence=max(rules.confidence[matched].tolist()),
            max_lift=max_lift,
            max_chi_squared=max(rules.chi_squared[matched].tolist()),
            expected=max_lift > lift_threshold,
        )
    return InstanceAssessment(instance, 0, 0.0, 0.0, 0.0, False)


def classify_expected(
    assessment: InstanceAssessment, lift_threshold: float = DEFAULT_LIFT_THRESHOLD
) -> bool:
    """An instance is expected when some matched rule's lift strictly
    exceeds the threshold; unmatched instances never are."""
    return assessment.matched_rule_count >= 1 and assessment.max_lift > lift_threshold


def absolute_risk(instance_count: int, exposures: int) -> float:
    if exposures <= 0:
        raise DomainError("risk is undefined with zero exposures")
    return instance_count / exposures


def adjusted_risk(instance_count: int, expected_count: int, exposures: int) -> float:
    """Unexpected instances over exposed patients."""
    if exposures <= 0:
        raise DomainError("risk is undefined with zero exposures")
    if not 0 <= expected_count <= instance_count:
        raise DomainError(
            f"expected_count {expected_count} outside [0, {instance_count}]"
        )
    return (instance_count - expected_count) / exposures


def refine(
    spec: SignalSpec,
    rules: Iterable[AssociationRule],
    store: EventStore,
    instances: list[SignalInstance] | None = None,
    exposures: int | None = None,
    lift_threshold: float = DEFAULT_LIFT_THRESHOLD,
    include_same_day: bool = False,
    workers: int | None = 1,
) -> SignalReport:
    """Assess every instance of a signal and aggregate the refined risk.

    Instances and the exposure denominator are derived from the store
    unless supplied, so externally listed instances (or given counts)
    can be pushed through the same arithmetic. `workers` is checked
    (below 1 is a ConfigError) and has no other effect: instances are
    assessed on the caller's thread. A NaN `lift_threshold` is a
    ConfigError, since no lift exceeds it.
    """
    check_workers(workers)
    if math.isnan(lift_threshold):
        raise ConfigError("lift_threshold must be a number, not NaN")
    hoi_rules = extract_hoi_rules(rules, spec.hoi)
    if exposures is None:
        exposures = exposure_count(spec.doi, store)
    if exposures <= 0:
        raise DomainError("no patients exposed to the drug family; risk undefined")
    if instances is None:
        instances = find_instances(spec, store)
    assessments = tuple(
        assess_instance(store, inst, hoi_rules, include_same_day, lift_threshold)
        for inst in instances
    )

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


def report_to_dict(report: SignalReport) -> dict:
    return {
        "signal": {
            "name": report.spec.name,
            "doi_items": sorted(str(c) for c in report.spec.doi),
            "hoi_code": str(report.spec.hoi),
            "window": list(report.spec.window),
        },
        "exposure_count": report.exposure_count,
        "instance_count": report.instance_count,
        "matched_count": report.matched_count,
        "expected_count": report.expected_count,
        "absolute_risk": report.absolute_risk,
        "adjusted_risk": report.adjusted_risk,
        "avg_max_confidence_all": report.avg_max_confidence_all,
        "avg_max_chi_all": report.avg_max_chi_all,
        "avg_max_confidence_matched": report.avg_max_confidence_matched,
        "avg_max_chi_matched": report.avg_max_chi_matched,
        "hoi_rule_count": report.hoi_rule_count,
        "ab_ratio": report.ab_ratio,
        "matched_averages_defined": report.matched_averages_defined,
        "instances": [
            {
                "patient_id": a.instance.patient_id,
                "doi_date": a.instance.doi_date.isoformat(),
                "hoi_date": a.instance.hoi_date.isoformat(),
                "matched_rule_count": a.matched_rule_count,
                "max_confidence": a.max_confidence,
                "max_lift": a.max_lift,
                "max_chi_squared": a.max_chi_squared,
                "expected": a.expected,
            }
            for a in report.assessments
        ],
    }


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
