"""Acceptance criteria, one test per criterion.

Each test prints a `criterion N: ...` line on success so a verbose run
reads as a checklist. Tolerances are pinned here and nowhere else.
"""

import datetime as dt
import math
import random
import resource
import time
from fractions import Fraction

import numpy as np

from adrrefine.baskets import BasketDatabase, build_database
from adrrefine.codes import Item, ItemKind, parse_bnf, parse_read
from adrrefine.events import (
    EventRecord,
    EventStore,
    PatientInfo,
    apply_prescription_exclusions,
    load,
)
from adrrefine.mining import (
    AssociationRule,
    MiningConstraints,
    contingency_from_counts,
    mine_rules,
    read_rules_csv,
    rule_measures,
)
from adrrefine.refine import absolute_risk, adjusted_risk, refine
from adrrefine.signals import SignalInstance, SignalSpec, read_instances_csv
from adrrefine.synth import (
    CatalogItem,
    PlantedAdr,
    PlantedConfounder,
    ScenarioConfig,
    daily_rate_for_presence,
    expected_filter_rate,
    generate_store,
)

from oracles import brute_force_rules, chi2_counts_oracle


def test_criterion_1_worked_example_golden(worked_example_dir):
    """The four-patient worked example must reproduce exactly."""
    t0 = time.perf_counter()
    store = load(
        str(worked_example_dir / "patients.csv"), str(worked_example_dir / "events.csv")
    )
    assert store.patient_count == 4 and store.event_count == 20
    store = apply_prescription_exclusions(store)
    rules = read_rules_csv(str(worked_example_dir / "rules.csv"))
    instances = read_instances_csv(str(worked_example_dir / "instances.csv"))
    spec = SignalSpec(
        doi=frozenset([parse_bnf("1.1.0.0")]), hoi=parse_read("H05.."), window=(1, 60)
    )
    report = refine(spec, rules, store, instances=instances, exposures=25)

    assert [a.matched_rule_count for a in report.assessments] == [1, 3, 3, 0]
    maxima = [
        (a.max_confidence, a.max_chi_squared, a.max_lift) for a in report.assessments
    ]
    assert maxima == [
        (0.03, 200.0, 1.4),
        (0.03, 200.0, 1.5),
        (0.03, 200.0, 1.5),
        (0.0, 0.0, 0.0),
    ]
    assert report.expected_count == 3
    assert report.adjusted_risk == 0.04
    assert report.avg_max_confidence_all == 0.0225
    assert report.avg_max_chi_all == 150.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 1: worked example reproduced exactly "
        f"(adjusted risk 0.04, {elapsed:.3f}s) PASS"
    )


ITEM_POOL = [Item(ItemKind.READ, f"{c}{i:02d}..") for c in "ABCDE" for i in range(4)]


def test_criterion_2_miner_oracle_equivalence():
    """200 randomized corpora: the miner equals exhaustive enumeration."""
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked_rules = 0
    for trial in range(200):
        n_items = rng.randint(4, 20)
        n_baskets = rng.randint(20, 300)
        items = ITEM_POOL[:n_items]
        density = rng.uniform(0.08, 0.55)
        baskets = []
        for j in range(n_baskets):
            chosen = frozenset(it for it in items if rng.random() < density)
            baskets.append((f"p{j}", chosen or frozenset([rng.choice(items)])))
        db = BasketDatabase(baskets)
        consequent = rng.choice(db.items)
        constraints = MiningConstraints(
            min_left_support=rng.choice([0.001, 0.004, 0.02, 0.08, 0.2]),
            min_confidence=rng.choice([0.01, 0.05, 0.2, 0.5, 0.9]),
            max_antecedent=rng.randint(1, 3),
        )
        mined = mine_rules(db, consequent, constraints, workers=1 + trial % 3)
        oracle = brute_force_rules(
            [set(b) for _, b in baskets],
            consequent,
            constraints.min_left_support,
            constraints.min_confidence,
            constraints.max_antecedent,
        )
        assert {r.antecedent for r in mined} == set(oracle), f"trial {trial}"
        for r in mined:
            want = oracle[r.antecedent]
            got = (r.support, r.left_support, r.confidence, r.lift, r.chi_squared)
            for g, w in zip(got, want):
                assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9), f"trial {trial}"
        checked_rules += len(mined)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 2: 200 corpora, {checked_rules} rules equal to brute force "
        f"({elapsed:.1f}s) PASS"
    )


def test_criterion_3_measure_identities():
    """>= 1000 generated count quadruples: measure identities hold."""
    rng = random.Random(3033)
    cases = 0
    while cases < 1200:
        m = rng.randint(2, 5000)
        cx = rng.randint(1, m)
        cy = rng.randint(1, m)
        cxy = rng.randint(max(0, cx + cy - m), min(cx, cy))
        meas = rule_measures(cxy, cx, cy, m)

        # confidence * left_support == support, exact on the count scale
        assert Fraction(cxy, cx) * Fraction(cx, m) == Fraction(cxy, m)
        assert math.isclose(
            meas.confidence * meas.left_support, meas.support, rel_tol=1e-12, abs_tol=1e-15
        )

        table = contingency_from_counts(cxy, cx, cy, m)
        assert math.isclose(sum(table.observed), 1.0, abs_tol=1e-12)
        assert math.isclose(sum(table.expected), 1.0, abs_tol=1e-12)

        oracle = chi2_counts_oracle(cxy, cx, cy, m)
        assert math.isclose(meas.chi_squared, oracle, rel_tol=1e-9, abs_tol=1e-9)

        if cx != m and cy != m:  # non-degenerate marginals
            assert (meas.lift == 1.0) == (meas.chi_squared == 0.0)
        cases += 1
    print(f"criterion 3: measure identities held on {cases} cases PASS")


def _random_refinement_case(rng: random.Random):
    """A small in-memory cohort, rule set, and instance list."""
    doi_code = "1.1.0.0"
    outcome = "H05.."
    misc_read = ["H01..", "H02..", "H03..", "H04.."]
    misc_bnf = ["2.2.0.0", "3.3.0.0"]
    start = dt.date(2000, 1, 1)
    n_patients = rng.randint(2, 7)
    patients = {}
    events = {}
    for i in range(n_patients):
        pid = f"p{i}"
        patients[pid] = PatientInfo(pid, rng.choice("MF"), 1950, start)
        evs = []
        if rng.random() < 0.8:
            evs.append(EventRecord(pid, start + dt.timedelta(days=rng.randint(30, 400)), "BNF", doi_code))
        for _ in range(rng.randint(0, 6)):
            day = rng.randint(0, 900)
            if rng.random() < 0.5:
                evs.append(EventRecord(pid, start + dt.timedelta(days=day), "READ", rng.choice(misc_read)))
            else:
                evs.append(EventRecord(pid, start + dt.timedelta(days=day), "BNF", rng.choice(misc_bnf)))
        if rng.random() < 0.6:
            evs.append(EventRecord(pid, start + dt.timedelta(days=rng.randint(100, 900)), "READ", outcome))
        evs.sort(key=lambda e: e.date)
        events[pid] = tuple(evs)
    store = EventStore(patients=patients, events=events, db_end_date=start + dt.timedelta(days=1000))

    consequent = Item(ItemKind.READ, outcome)
    pool = [Item(ItemKind.READ, c) for c in misc_read] + [
        Item(ItemKind.BNF, c) for c in misc_bnf
    ] + [Item(ItemKind.GENDER, "M"), Item(ItemKind.GENDER, "F"), Item(ItemKind.BNF, doi_code)]
    rules = []
    for _ in range(rng.randint(0, 8)):
        antecedent = frozenset(rng.sample(pool, rng.randint(1, 3)))
        rules.append(
            AssociationRule(
                antecedent=antecedent,
                consequent=consequent,
                support=0.001,
                left_support=0.01,
                confidence=rng.uniform(0.01, 0.9),
                lift=rng.choice([0.4, 0.9, 1.0, 1.05, 1.3, 2.5, 6.0]),
                chi_squared=rng.uniform(0.0, 400.0),
            )
        )
    instances = [
        SignalInstance(
            pid,
            start + dt.timedelta(days=rng.randint(10, 200)),
            start + dt.timedelta(days=rng.randint(201, 999)),
        )
        for pid in rng.sample(sorted(patients), rng.randint(1, n_patients))
    ]
    spec = SignalSpec(doi=frozenset([parse_bnf(doi_code)]), hoi=parse_read(outcome))
    return store, spec, rules, instances


def test_criterion_4_refinement_monotonicity():
    """>= 500 generated scenarios: risk ordering, threshold monotonicity,
    and rule-set monotonicity."""
    rng = random.Random(4044)
    for scenario in range(500):
        store, spec, rules, instances = _random_refinement_case(rng)
        exposures = max(len(instances), 1) + rng.randint(0, 30)

        base = refine(spec, rules, store, instances=instances, exposures=exposures)
        assert base.adjusted_risk <= base.absolute_risk + 1e-15
        assert base.expected_count <= base.matched_count <= base.instance_count
        assert base.absolute_risk == absolute_risk(base.instance_count, exposures)
        assert base.adjusted_risk == adjusted_risk(
            base.instance_count, base.expected_count, exposures
        )

        expected_by_threshold = [
            refine(
                spec, rules, store, instances=instances, exposures=exposures,
                lift_threshold=th,
            ).expected_count
            for th in (0.5, 1.0, 1.5, 4.0)
        ]
        assert expected_by_threshold == sorted(expected_by_threshold, reverse=True), (
            f"scenario {scenario}"
        )

        matched_by_rule_count = [
            refine(
                spec, rules[:k], store, instances=instances, exposures=exposures
            ).matched_count
            for k in range(0, len(rules) + 1, max(1, len(rules) // 2 or 1))
        ]
        assert matched_by_rule_count == sorted(matched_by_rule_count), f"scenario {scenario}"
    print("criterion 4: monotonicity held on 500 scenarios PASS")


SCENARIO_SPAN = 1460

# Background items are common enough that nearly every patient clears the
# 24-month activity floor; otherwise mining eligibility correlates with
# carrying the planted condition and quietly inflates rule confidences.
_SCENARIO_CATALOG = tuple(
    CatalogItem(code_type, code, daily_rate_for_presence(p, SCENARIO_SPAN))
    for code_type, code, p in [
        ("BNF", "5.1.0.0", 0.50),   # drug family of interest
        ("READ", "C10..", 0.60),
        ("READ", "H33..", 0.55),
        ("BNF", "2.5.0.0", 0.60),
        ("READ", "J31..", 0.55),
        ("BNF", "3.4.0.0", 0.60),
        ("READ", "F11..", 0.55),
        ("READ", "M16..", 0.60),
    ]
)


def _run_pipeline(config: ScenarioConfig, hoi_code: str):
    """Generate, mine on the full history, refine on the excluded store."""
    store, truth = generate_store(config)
    db = build_database(store, min_active_months=24)
    consequent = Item(ItemKind.READ, str(parse_read(hoi_code).chars[:3] + ".."))
    rules = mine_rules(db, consequent, MiningConstraints())
    excluded = apply_prescription_exclusions(store)
    spec = SignalSpec(
        doi=frozenset([parse_bnf("5.1.0.0")]), hoi=parse_read(hoi_code), window=(1, 60)
    )
    report = refine(spec, rules, excluded)
    return report, truth


def test_criterion_5_planted_scenario_recovery():
    """End-to-end recovery of planted structure in two 100k-patient cohorts."""
    t0 = time.perf_counter()

    confounded = ScenarioConfig(
        seed=51001,
        patient_count=100_000,
        observation_days=SCENARIO_SPAN,
        catalog=_SCENARIO_CATALOG,
        confounder=PlantedConfounder(
            antecedent=(("READ", "K55.."), ("BNF", "9.9.0.0")),
            outcome_code="N771.",
            doi_code="5.1.0.0",
            prevalence=0.06,
            recording_probability=0.7,
            activation_probability=0.08,
            doi_coprescription_probability=0.3,
        ),
    )
    report, truth = _run_pipeline(confounded, "N771.")
    target = expected_filter_rate(confounded)
    assert target == 0.7
    n = report.instance_count
    assert n >= 60, f"too few instances to test: {n}"
    assert report.hoi_rule_count >= 3  # the planted antecedent rules were mined
    observed = report.expected_count / n
    se = math.sqrt(target * (1 - target) / n)
    assert abs(observed - target) <= 3 * se, (
        f"flagged {observed:.3f} vs expected {target} (n={n}, 3se={3 * se:.3f})"
    )

    pure_adr = ScenarioConfig(
        seed=51002,
        patient_count=100_000,
        observation_days=SCENARIO_SPAN,
        catalog=_SCENARIO_CATALOG,
        adr=PlantedAdr(
            doi_items=("5.1.0.0",),
            outcome_code="N772.",
            reaction_probability=0.005,
            latency_days=(1, 60),
        ),
    )
    adr_report, adr_truth = _run_pipeline(pure_adr, "N772.")
    background_rate = expected_filter_rate(pure_adr)
    assert background_rate == 0.0
    n_adr = adr_report.instance_count
    assert n_adr >= 60, f"too few instances to test: {n_adr}"
    # within 3 standard errors of a zero rate means exactly zero
    assert adr_report.expected_count == 0
    assert adr_report.adjusted_risk == adr_report.absolute_risk
    assert any(row.cause == "adr" for row in adr_truth)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"criterion 5: confounded cohort flagged {observed:.3f} (target 0.7, "
        f"n={n}); pure-reaction cohort flagged 0/{n_adr} ({elapsed:.1f}s) PASS"
    )


def _round_sig(value: float, figures: int) -> float:
    if value == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    return round(value, -exponent + figures - 1)


def test_criterion_6_reference_risk_arithmetic():
    """Reference instance/expected/exposure counts give the reference
    confounding-adjusted risks."""
    rows = [
        (3388, 1293, 258397, 8.107e-3, 8.1e-3),
        (73, 58, 258397, 5.805e-5, 5.8e-5),
        (9, 0, 258397, 3.483e-5, 3.5e-5),
        (5, 5, 258397, 0.0, 0.0),
    ]
    for instances, expected, exposures, adjusted_4sf, adjusted_2sf in rows:
        value = adjusted_risk(instances, expected, exposures)
        assert value == (instances - expected) / exposures
        # the governing tolerance is two significant figures; the 4-figure
        # values identify the quotients (2095/258397 truncates to 8.107e-3)
        assert math.isclose(value, adjusted_4sf, rel_tol=2e-4, abs_tol=1e-12)
        assert _round_sig(value, 2) == adjusted_2sf
        assert value <= absolute_risk(instances, exposures)
    # the absolute risk for the first row rounds to 1.3e-2; the quotient is reported exactly
    assert _round_sig(absolute_risk(3388, 258397), 2) == 1.3e-2
    print("criterion 6: reference adjusted risks reproduced from counts PASS")


def test_criterion_7_mining_performance():
    """Single-consequent mining over 100k baskets x 1000 items at default
    constraints: under 120 s and under 4 GB."""
    m = 100_000
    n_items = 1_000
    rng = np.random.default_rng(7077)
    ranks = np.arange(1, n_items + 1)
    presence = np.minimum(0.5, 0.8 * ranks**-0.6)
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    items = [
        Item(ItemKind.READ, f"{letters[k % 26]}{k // 26:02d}..") for k in range(n_items)
    ]
    members: list[list[Item]] = [[] for _ in range(m)]
    for idx in range(n_items):
        for b in np.nonzero(rng.random(m) < presence[idx])[0]:
            members[b].append(items[idx])
    db = BasketDatabase(
        [(f"p{j}", frozenset(basket)) for j, basket in enumerate(members)]
    )
    assert db.m == m and len(db.items) == n_items

    consequent = items[120]
    t0 = time.perf_counter()
    rules = mine_rules(db, consequent, MiningConstraints(), workers=None)
    elapsed = time.perf_counter() - t0

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)
    assert elapsed < 120.0, f"mining took {elapsed:.1f}s"
    assert peak_gb < 4.0, f"peak rss {peak_gb:.2f} GB"
    assert len(rules) > 0
    print(
        f"criterion 7: mined {len(rules)} rules over {m} baskets in {elapsed:.1f}s, "
        f"peak rss {peak_gb:.2f} GB PASS"
    )
