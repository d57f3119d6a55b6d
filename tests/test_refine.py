import csv
import datetime as dt
import importlib
import json
import random

import pytest

from adrrefine.codes import Item, ItemKind, normalize_item, parse_bnf, parse_read
from adrrefine.errors import ConfigError, DomainError
from adrrefine.events import apply_prescription_exclusions
from adrrefine.mining import AssociationRule, read_rules_csv
from adrrefine.refine import (
    absolute_risk,
    adjusted_risk,
    assess_instance,
    assess_instances,
    extract_hoi_rules,
    refine,
    write_report_csv,
    write_report_json,
)
from adrrefine.signals import SignalInstance, SignalSpec, load_signal_spec, read_instances_csv

from oracles import assess_oracle
from test_signals import DIAGNOSIS_POOL, DRUG_POOL, calendar_store, record_scan_basket

# The module; `adrrefine.refine` as a package attribute is the function.
refine_module = importlib.import_module("adrrefine.refine")


@pytest.fixture()
def worked_rules(worked_example_dir):
    return read_rules_csv(str(worked_example_dir / "rules.csv"))


@pytest.fixture()
def worked_instances(worked_example_dir):
    return read_instances_csv(str(worked_example_dir / "instances.csv"))


@pytest.fixture()
def worked_spec(worked_example_dir):
    return load_signal_spec(str(worked_example_dir / "signal.json"))


class TestExtractHoiRules:
    def test_level_three_query(self, worked_rules):
        assert len(extract_hoi_rules(worked_rules, parse_read("H05.."))) == 4

    def test_deeper_query_uses_level_three_ancestor(self, worked_rules):
        assert len(extract_hoi_rules(worked_rules, parse_read("H052."))) == 4
        assert len(extract_hoi_rules(worked_rules, parse_read("H052z"))) == 4

    def test_unrelated_query_yields_nothing(self, worked_rules):
        assert extract_hoi_rules(worked_rules, parse_read("Z99..")) == []

    def test_empty_rule_set(self):
        assert extract_hoi_rules([], parse_read("H05..")) == []

    def test_query_above_level_three_rejected(self, worked_store, worked_rules, worked_spec):
        # The instances exist, but no rule has a level-1/2 consequent, so
        # refinement would silently report the unadjusted risk.
        for code in ("H0...", "H...."):
            with pytest.raises(DomainError):
                extract_hoi_rules(worked_rules, parse_read(code))
            spec = SignalSpec(doi=worked_spec.doi, hoi=parse_read(code), window=worked_spec.window)
            with pytest.raises(DomainError):
                refine(spec, worked_rules, worked_store)


class TestAssessInstance:
    def test_worked_example_instances(self, worked_store, worked_rules, worked_instances):
        hoi_rules = extract_hoi_rules(worked_rules, parse_read("H05.."))
        got = [assess_instance(worked_store, inst, hoi_rules) for inst in worked_instances]
        assert [a.matched_rule_count for a in got] == [1, 3, 3, 0]
        assert [(a.max_confidence, a.max_chi_squared, a.max_lift) for a in got] == [
            (0.03, 200.0, 1.4),
            (0.03, 200.0, 1.5),
            (0.03, 200.0, 1.5),
            (0.0, 0.0, 0.0),
        ]

    def test_unmatched_instance_is_all_zeros(self, worked_store, worked_rules):
        hoi_rules = extract_hoi_rules(worked_rules, parse_read("H05.."))
        inst = SignalInstance("4", dt.date(2011, 1, 1), dt.date(2011, 1, 5))
        a = assess_instance(worked_store, inst, hoi_rules)
        assert a.matched_rule_count == 0
        assert (a.max_confidence, a.max_lift, a.max_chi_squared) == (0.0, 0.0, 0.0)
        assert not a.expected


def assessment_tuple(a):
    return (a.matched_rule_count, a.max_confidence, a.max_lift, a.max_chi_squared, a.expected)


OUTCOME = Item(ItemKind.READ, "N77..")
GENDER_F = Item(ItemKind.GENDER, "F")
# The calendar stores' items, both genders, and two items no store holds.
RULE_POOL = sorted(
    {normalize_item("BNF", c) for c in DRUG_POOL}
    | {normalize_item("READ", c) for c in DIAGNOSIS_POOL}
    | {Item(ItemKind.GENDER, "M"), GENDER_F}
    | {Item(ItemKind.READ, "Z99.."), Item(ItemKind.BNF, "9.9.0.0")},
    key=lambda it: it.token,
)


def random_rules(rng: random.Random, count: int) -> list[AssociationRule]:
    """Rules over `RULE_POOL` with antecedents of 1-3 items, plus one rule
    whose antecedent is the gender item F alone."""
    rules = [AssociationRule(frozenset([GENDER_F]), OUTCOME, 0.1, 0.5, 0.2, 1.1, 3.0)]
    for _ in range(count):
        rules.append(AssociationRule(
            frozenset(rng.sample(RULE_POOL, rng.randint(1, 3))), OUTCOME,
            rng.random(), rng.random(), rng.random(),
            rng.choice([0.5, 1.0, 1.2, 3.0]), rng.uniform(0, 300),
        ))
    return rules


def outcome_day_instances(rng: random.Random, store) -> list[SignalInstance]:
    """Per patient, instances whose outcome day is one of its event days,
    and one dated before every event (no history rows); patients without
    events get only that one. Shuffled, so patients repeat out of order."""
    instances = []
    for pid in store.patients:
        days = sorted({e.date for e in store.patient_events(pid)})
        for day in [*rng.sample(days, min(2, len(days))), dt.date(1990, 1, 1)]:
            instances.append(SignalInstance(pid, day - dt.timedelta(days=1), day))
    rng.shuffle(instances)
    return instances


class TestAssessInstances:
    """All of a signal's instances in one match, against the frozenset
    subset oracle over record-scan baskets."""

    @pytest.mark.parametrize("seed", [81, 82])
    def test_equals_frozenset_subset_oracle(self, seed):
        rng = random.Random(seed)
        store = calendar_store(rng)
        for source in (store, apply_prescription_exclusions(store)):
            instances = outcome_day_instances(rng, source)
            baskets = {
                same_day: [
                    record_scan_basket(source, i.patient_id, i.hoi_date, same_day)
                    for i in instances
                ]
                for same_day in (False, True)
            }
            for _ in range(4):
                rules = random_rules(rng, rng.randint(0, 30))
                for same_day in (False, True):
                    for threshold in (1.0, 1.2):
                        got = assess_instances(source, instances, rules, same_day, threshold)
                        assert [a.instance for a in got] == instances
                        assert [assessment_tuple(a) for a in got] == [
                            assess_oracle(basket, rules, threshold) for basket in baskets[same_day]
                        ]

    def test_oracle_inputs_cover_the_edge_cases(self):
        rng = random.Random(81)
        store = calendar_store(rng)
        instances = outcome_day_instances(rng, store)
        rules = random_rules(rng, 5)
        strict = [record_scan_basket(store, i.patient_id, i.hoi_date, False) for i in instances]
        loose = [record_scan_basket(store, i.patient_id, i.hoi_date, True) for i in instances]
        assert sum(a != b for a, b in zip(strict, loose)) > 10  # same-day rows decide
        assert sum(len(b) == 1 for b in strict) > 10  # gender only: no history rows
        got = [assess_oracle(b, rules, 1.0) for b in strict]
        assert 0 < sum(g[0] > 0 for g in got) < len(got)
        assert sum(g[0] > 1 for g in got) > 0
        assert 0 < sum(g[4] for g in got) < len(got)

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        rng = random.Random(83)
        store = calendar_store(rng)
        instances = outcome_day_instances(rng, store)
        rules = random_rules(rng, 20)
        whole = assess_instances(store, instances, rules)
        # A byte per instance and rule slot plus 24 per instance and rule
        # make 20 instances or fewer per block at 20,000 bytes.
        for budget in (1, 20_000):
            monkeypatch.setattr(refine_module, "_MATCH_BYTES", budget)
            assert assess_instances(store, instances, rules) == whole

    def test_no_instances_and_no_rules(self, worked_store, worked_rules, worked_instances):
        hoi_rules = extract_hoi_rules(worked_rules, parse_read("H05.."))
        assert assess_instances(worked_store, [], hoi_rules) == ()
        assert assess_instances(worked_store, [], []) == ()
        for empty in ([], hoi_rules[:0]):
            got = assess_instances(worked_store, worked_instances, empty, lift_threshold=-1.0)
            assert [assessment_tuple(a) for a in got] == [(0, 0.0, 0.0, 0.0, False)] * 4

    def test_unknown_patient(self, worked_store, worked_rules, worked_instances):
        unknown = SignalInstance("nope", dt.date(2005, 1, 1), dt.date(2005, 1, 9))
        instances = [*worked_instances, unknown]
        with pytest.raises(DomainError, match="^unknown patient: nope$"):
            assess_instances(worked_store, instances, worked_rules)


class TestClassifyExpected:
    """The lift rule, through `assess_instance` with one rule over patient
    2's history before 2001-08-14 (gender M, H03.., 1.1.0.0, 2.2.0.0)."""

    def _assess(self, worked_store, antecedent, lift, **kwargs):
        rule = AssociationRule(
            antecedent=frozenset([Item(ItemKind.READ, antecedent)]),
            consequent=Item(ItemKind.READ, "H05.."),
            support=0.01, left_support=0.1, confidence=0.1, lift=lift, chi_squared=5.0,
        )
        inst = SignalInstance("2", dt.date(2001, 1, 1), dt.date(2001, 8, 14))
        return assess_instance(worked_store, inst, [rule], **kwargs)

    def test_lift_above_threshold(self, worked_store):
        assert self._assess(worked_store, "H03..", 1.4).expected

    def test_lift_exactly_one_is_not_expected(self, worked_store):
        assert not self._assess(worked_store, "H03..", 1.0).expected

    def test_unmatched_is_not_expected(self, worked_store):
        a = self._assess(worked_store, "Z99..", 1.4, lift_threshold=-1.0)
        assert a.matched_rule_count == 0
        assert not a.expected

    def test_threshold_parameter(self, worked_store):
        for threshold, want in ((1.0, True), (1.4, False), (2.0, False)):
            assert self._assess(worked_store, "H03..", 1.4, lift_threshold=threshold).expected is want


class TestRiskArithmetic:
    def test_worked_example_quotients(self):
        assert absolute_risk(4, 25) == 0.16
        assert adjusted_risk(4, 3, 25) == 0.04

    def test_zero_exposure_is_undefined(self):
        with pytest.raises(DomainError):
            absolute_risk(4, 0)
        with pytest.raises(DomainError):
            adjusted_risk(4, 3, 0)

    def test_expected_bounded_by_instances(self):
        with pytest.raises(DomainError):
            adjusted_risk(4, 5, 25)


class TestRefine:
    def test_worked_example_report(self, worked_store, worked_rules, worked_instances, worked_spec):
        store = apply_prescription_exclusions(worked_store)
        report = refine(
            worked_spec, worked_rules, store, instances=worked_instances, exposures=25
        )
        assert report.instance_count == 4
        assert report.matched_count == 3
        assert report.expected_count == 3
        assert report.hoi_rule_count == 4
        assert report.absolute_risk == 0.16
        assert report.adjusted_risk == 0.04
        assert report.avg_max_confidence_all == 0.0225
        assert report.avg_max_chi_all == 150.0
        assert report.matched_averages_defined
        assert report.avg_max_confidence_matched == pytest.approx(0.03)
        assert report.avg_max_chi_matched == pytest.approx(200.0)

    def test_no_rules_means_nothing_expected(self, worked_store, worked_instances, worked_spec):
        report = refine(worked_spec, [], worked_store, instances=worked_instances, exposures=25)
        assert report.expected_count == 0
        assert report.matched_count == 0
        assert report.adjusted_risk == report.absolute_risk
        assert not report.matched_averages_defined
        assert report.avg_max_confidence_matched == 0.0
        assert report.avg_max_chi_matched == 0.0

    def test_derives_instances_and_exposure_from_store(self, worked_store, worked_rules, worked_spec):
        report = refine(worked_spec, worked_rules, worked_store)
        assert report.exposure_count == 4
        assert report.instance_count == 3  # patients 2, 3, 4 are in-window
        assert report.ab_ratio == 3.0

    def test_unknown_patient_in_supplied_instances(self, worked_store, worked_rules, worked_spec):
        instances = [SignalInstance("nope", dt.date(2005, 1, 1), dt.date(2005, 1, 9))]
        with pytest.raises(DomainError, match="^unknown patient: nope$"):
            refine(worked_spec, worked_rules, worked_store, instances=instances, exposures=25)

    def test_zero_exposure_rejected(self, worked_store, worked_rules):
        spec = SignalSpec(
            doi=frozenset([parse_bnf("9.9.0.0")]), hoi=parse_read("H05.."), window=(1, 60)
        )
        with pytest.raises(DomainError):
            refine(spec, worked_rules, worked_store)

    def test_nan_lift_threshold_rejected(self, worked_store, worked_rules, worked_spec):
        with pytest.raises(ConfigError, match="NaN"):
            refine(worked_spec, worked_rules, worked_store, lift_threshold=float("nan"))

    def test_lift_threshold_monotone(self, worked_store, worked_rules, worked_instances, worked_spec):
        counts = []
        for threshold in (0.5, 1.0, 1.3, 1.45, 2.0):
            report = refine(
                worked_spec, worked_rules, worked_store,
                instances=worked_instances, exposures=25, lift_threshold=threshold,
            )
            counts.append(report.expected_count)
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0

    def test_more_rules_never_match_less(self, worked_store, worked_rules, worked_instances, worked_spec):
        sizes = []
        for k in range(len(worked_rules) + 1):
            report = refine(
                worked_spec, worked_rules[:k], worked_store,
                instances=worked_instances, exposures=25,
            )
            sizes.append(report.matched_count)
        assert sizes == sorted(sizes)


class TestReportFiles:
    def test_json_contains_all_fields_and_instances(
        self, tmp_path, worked_store, worked_rules, worked_instances, worked_spec
    ):
        report = refine(
            worked_spec, worked_rules, worked_store, instances=worked_instances, exposures=25
        )
        path = tmp_path / "report.json"
        write_report_json(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["adjusted_risk"] == 0.04
        assert payload["expected_count"] == 3
        assert payload["signal"]["hoi_code"] == "H05.."
        assert len(payload["instances"]) == 4
        assert payload["instances"][0]["matched_rule_count"] == 1
        assert payload["instances"][3]["expected"] is False

    def test_csv_summary_row(
        self, tmp_path, worked_store, worked_rules, worked_instances, worked_spec
    ):
        report = refine(
            worked_spec, worked_rules, worked_store, instances=worked_instances, exposures=25
        )
        path = tmp_path / "report.csv"
        write_report_csv(report, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["hoi", "read_code", "ab_ratio", "instances", "risk",
                           "confounding_adjusted_risk"]
        assert rows[1][0] == "HOI5"
        assert rows[1][1] == "H05.."
        assert rows[1][3] == "4"
        assert float(rows[1][4]) == 0.16
        assert float(rows[1][5]) == 0.04


class TestRandomizedInvariants:
    def _random_case(self, rng, worked_store, worked_spec):
        consequent = Item(ItemKind.READ, "H05..")
        pool = [Item(ItemKind.READ, f"H{i:02d}..") for i in range(1, 5)] + [
            Item(ItemKind.BNF, "2.2.0.0"),
            Item(ItemKind.GENDER, "M"),
        ]
        rules = []
        for _ in range(rng.randint(0, 6)):
            size = rng.randint(1, 3)
            antecedent = frozenset(rng.sample(pool, size))
            lift = rng.choice([0.5, 0.9, 1.0, 1.1, 1.6, 3.0])
            rules.append(
                AssociationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    support=0.001,
                    left_support=0.01,
                    confidence=0.1,
                    lift=lift,
                    chi_squared=rng.uniform(0, 300),
                )
            )
        instances = [
            SignalInstance(pid, dt.date(2001, 1, 1), dt.date(2001, 1, 1) + dt.timedelta(days=rng.randint(1, 3600)))
            for pid in rng.sample(["1", "2", "3", "4"], rng.randint(1, 4))
        ]
        return rules, instances

    def test_adjusted_never_exceeds_absolute(self, worked_store, worked_spec):
        rng = random.Random(60)
        for _ in range(200):
            rules, instances = self._random_case(rng, worked_store, worked_spec)
            report = refine(worked_spec, rules, worked_store, instances=instances, exposures=50)
            assert report.adjusted_risk <= report.absolute_risk + 1e-15
            assert report.expected_count <= report.matched_count <= report.instance_count
            if report.expected_count == 0:
                assert report.adjusted_risk == report.absolute_risk

    def test_matched_average_dominates_overall_average(self, worked_store, worked_spec):
        rng = random.Random(61)
        for _ in range(200):
            rules, instances = self._random_case(rng, worked_store, worked_spec)
            report = refine(worked_spec, rules, worked_store, instances=instances, exposures=50)
            if report.matched_count and report.matched_count < report.instance_count:
                assert report.avg_max_confidence_matched >= report.avg_max_confidence_all - 1e-15
                assert report.avg_max_chi_matched >= report.avg_max_chi_all - 1e-15
