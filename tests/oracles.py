"""Independent oracles used by the tests.

These deliberately avoid the library's code paths: supports come from
scanning tid-sets per candidate, and the chi-squared statistic is the
textbook count-based 2x2 form. Rule matching is a frozenset subset
test per rule, an outcome record is a string-prefix test or the
truncation rule, a family prescription is the truncation rule, and the
rules-file writers go a rule at a time through `csv.writer` and
`json.dump`, and synthetic patients draw from streams numpy seeds
itself. `reference_report` runs the whole pipeline, exclusions to
report, over record lists. The library must agree with them.
"""

import calendar
import csv
import datetime as dt
import json
from collections import namedtuple
from itertools import combinations

import numpy as np

from adrrefine import synth
from adrrefine.codes import (
    bnf_level,
    bnf_truncate,
    gender_item,
    normalize_item,
    parse_bnf,
    read_level,
    read_truncate,
)
from adrrefine.errors import DomainError


def chi2_counts_oracle(count_xy: int, count_x: int, count_y: int, m: int) -> float:
    """Classic 2x2 chi-squared on integer counts, 0.0 for degenerate margins."""
    row1, row0 = count_x, m - count_x
    col1, col0 = count_y, m - count_y
    if 0 in (row1, row0, col1, col0):
        return 0.0
    cells = (
        (count_xy, row1, col1),
        (count_x - count_xy, row1, col0),
        (count_y - count_xy, row0, col1),
        (m - count_x - count_y + count_xy, row0, col0),
    )
    total = 0.0
    for observed, row, col in cells:
        expected = row * col / m
        total += (observed - expected) ** 2 / expected
    return total


def scalar_rule_measures(count_xy: int, count_x: int, count_y: int, m: int) -> tuple:
    """(support, left_support, confidence, lift, chi_squared) the way the
    miner computed them one rule at a time: Python ints, one correctly
    rounded division per contingency cell, `(o - e) ** 2 / e` summed in
    cell order, 0.0 when a marginal is 0 or m. The miner's measure
    columns must equal these bit for bit."""
    mm = m * m
    observed = (
        count_xy / m,
        (count_x - count_xy) / m,
        (count_y - count_xy) / m,
        (m - count_x - count_y + count_xy) / m,
    )
    expected = (
        (count_x * count_y) / mm,
        (count_x * (m - count_y)) / mm,
        (count_y * (m - count_x)) / mm,
        ((m - count_x) * (m - count_y)) / mm,
    )
    chi = 0.0
    if not any(e == 0.0 for e in expected):
        total = 0.0
        for o, e in zip(observed, expected):
            total += (o - e) ** 2 / e
        chi = m * total
    return (
        count_xy / m,
        count_x / m,
        count_xy / count_x,
        (count_xy * m) / (count_x * count_y),
        chi,
    )


def brute_force_rules(baskets, consequent, min_left_support, min_confidence, max_antecedent):
    """Exhaustively enumerate every antecedent of size <= max_antecedent.

    `baskets` is a sequence of sets of hashable items. Returns a dict
    mapping frozenset(antecedent) -> (support, left_support, confidence,
    lift, chi_squared).
    """
    m = len(baskets)
    tids = {}
    for ordinal, basket in enumerate(baskets):
        for item in basket:
            tids.setdefault(item, set()).add(ordinal)
    consequent_tids = tids.get(consequent, set())
    count_y = len(consequent_tids)
    universe = sorted((it for it in tids if it != consequent), key=str)

    found = {}
    for size in range(1, max_antecedent + 1):
        for combo in combinations(universe, size):
            covered = set.intersection(*(tids[it] for it in combo))
            count_x = len(covered)
            if count_x == 0 or count_x / m < min_left_support:
                continue
            count_xy = len(covered & consequent_tids)
            confidence = count_xy / count_x
            if confidence < min_confidence:
                continue
            found[frozenset(combo)] = (
                count_xy / m,
                count_x / m,
                confidence,
                count_xy * m / (count_x * count_y),
                chi2_counts_oracle(count_xy, count_x, count_y, m),
            )
    return found


def seedseq_cohort_oracle(config):
    """`synth._generate` with each patient's generator built by numpy,
    `default_rng(SeedSequence(seed, spawn_key=(k,)))` for patient k, and
    run through `_generate_patient` the same way. Only the stream seeding
    differs from the library's path."""
    synth.validate_config(config)
    rngs = (
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
        for k in range(config.patient_count)
    )
    return synth._cohort(config, rngs)


def family_oracle(code, doi):
    """Whether a parsed drug code is in a family, by the definition: cut to
    some entry's level, it is that entry."""
    return any(bnf_truncate(code, bnf_level(entry)) == entry for entry in doi)


def outcome_code_oracle(code, hoi_query):
    """Whether a parsed diagnosis code is an outcome record of a query, by
    the definition: cut to the query's level, it is the query."""
    return read_truncate(code, read_level(hoi_query)) == hoi_query


def outcome_oracle(code_type, code, hoi_query):
    """Whether a record is an outcome of a diagnosis query, on the strings:
    a READ code that starts with the query's characters before its dots."""
    return code_type == "READ" and code.startswith(str(hoi_query).rstrip("."))


def assess_oracle(basket, rules, lift_threshold):
    """(matched count, max confidence, max lift, max chi-squared, expected)
    of one basket: a rule matches when its antecedent frozenset is a
    subset of the basket; all zero and not expected without a match."""
    matched = [r for r in rules if r.antecedent <= basket]
    if not matched:
        return (0, 0.0, 0.0, 0.0, False)
    max_lift = max(r.lift for r in matched)
    return (
        len(matched),
        max(r.confidence for r in matched),
        max_lift,
        max(r.chi_squared for r in matched),
        max_lift > lift_threshold,
    )


RULE_FILE_MEASURES = ["left_support", "support", "confidence", "lift", "chi_squared"]


def _sorted_rules(rules):
    return sorted(rules, key=lambda r: (r.consequent.token, r.antecedent_tokens))


def write_rules_csv_oracle(rules, path):
    """rules.csv written a rule at a time through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["antecedent", "consequent", *RULE_FILE_MEASURES])
        for r in _sorted_rules(rules):
            numbers = (f"{getattr(r, name):.12g}" for name in RULE_FILE_MEASURES)
            writer.writerow(["|".join(r.antecedent_tokens), r.consequent.token, *numbers])


def write_rules_json_oracle(rules, path):
    """rules.json written through `json.dump` of one object per rule."""
    payload = [
        {
            "antecedent": list(r.antecedent_tokens),
            "consequent": r.consequent.token,
            **{name: getattr(r, name) for name in RULE_FILE_MEASURES},
        }
        for r in _sorted_rules(rules)
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def csv_rows_oracle(path, header):
    """(rows, fault) of a CSV file read one record at a time through
    `csv.reader`: each non-blank record after the header with its line
    number (records counted from the header's 1, blank ones included), up
    to the first fault, which is (message, line) for a header other than
    `header`, a record the csv module cannot read or a record without one
    field per header column, and None when there is none."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        line = 0
        while True:
            line += 1
            try:
                record = next(reader, None)
            except csv.Error as exc:
                return rows, (str(exc), line)
            if line == 1:
                if record != header:
                    return rows, (f"expected header {','.join(header)}", 1)
            elif record is None:
                return rows, None
            elif record:
                if len(record) != len(header):
                    return rows, (f"expected {len(header)} fields, got {len(record)}", line)
                rows.append((line, record))


def add_months_oracle(date, months):
    """Shift by calendar months, clamping the day to the month's length."""
    year, month0 = divmod(date.year * 12 + date.month - 1 + months, 12)
    return dt.date(year, month0 + 1, min(date.day, calendar.monthrange(year, month0 + 1)[1]))


ReferenceRule = namedtuple("ReferenceRule", "antecedent confidence lift chi_squared")


def reference_report(patients, events, spec, config):
    """report.json's payload for `spec` over a cohort given as lists of
    `PatientInfo` and `EventRecord`, record by record, with the tunables
    of `config` (a `cli.PipelineConfig`; the window is the spec's).

    Mining takes one whole-history basket per patient whose first event
    shifted by `min_active_months` months is on or before the last, its
    rules for the outcome's level-3 item from `brute_force_rules`, with
    the miner's formulas (`scalar_rule_measures`) recounted per rule.
    Refinement reads the history left after README's exclusions: a
    prescription on or before registration plus `exclusion_months`, or
    fewer than `end_buffer_days` days before the latest event, is gone.
    A DomainError stands where the library raises one: no eligible
    patient, or no exposed one."""
    history = {p.patient_id: [] for p in patients}
    for e in events:
        history[e.patient_id].append(e)
    for evs in history.values():
        evs.sort(key=lambda e: e.date)
    end = max((e.date for e in events), default=None)
    gender = {p.patient_id: gender_item(p.gender) for p in patients}

    def items(evs):
        return {normalize_item(e.code_type, e.code) for e in evs}

    def eligible(evs):
        months = config.min_active_months
        return months <= 0 or bool(evs) and add_months_oracle(evs[0].date, months) <= evs[-1].date

    baskets = [
        {gender[p.patient_id], *items(history[p.patient_id])}
        for p in patients
        if eligible(history[p.patient_id])
    ]
    if not baskets:
        raise DomainError("no eligible patient")
    target = normalize_item("READ", str(spec.hoi))
    found = brute_force_rules(
        baskets, target, config.min_left_support, config.min_confidence, config.max_antecedent
    )
    count_y = sum(target in b for b in baskets)
    rules = []
    for antecedent in found:
        holding = [b for b in baskets if antecedent <= b]
        count_xy = sum(target in b for b in holding)
        measures = scalar_rule_measures(count_xy, len(holding), count_y, len(baskets))
        rules.append(ReferenceRule(antecedent, *measures[2:]))

    def excluded(p, e):
        cutoff = add_months_oracle(p.registration_date, config.exclusion_months)
        return e.code_type == "BNF" and (
            e.date <= cutoff or (end - e.date).days < config.end_buffer_days
        )

    kept = {p.patient_id: [e for e in history[p.patient_id] if not excluded(p, e)] for p in patients}
    start, stop = spec.window
    exposed = after = before = 0
    instances = []
    for pid, evs in kept.items():
        drugs = [e for e in evs if e.code_type == "BNF" and family_oracle(parse_bnf(e.code), spec.doi)]
        outcomes = [e.date for e in evs if outcome_oracle(e.code_type, e.code, spec.hoi)]
        if not drugs:
            continue
        exposed += 1
        first = drugs[0].date
        hits = [d for d in outcomes if start <= (d - first).days <= stop]
        if hits:
            instances.append((pid, first, min(hits)))
        # A prescription counts once per (day, level-2 item).
        for day in (day for day, _ in {(e.date, normalize_item("BNF", e.code)) for e in drugs}):
            gaps = [(d - day).days for d in outcomes]
            after += any(start <= g <= stop for g in gaps)
            before += any(-stop <= g <= -start for g in gaps)
    if not exposed:
        raise DomainError("no exposed patient")

    rows = []
    for pid, first, hoi_date in sorted(instances):
        prior = [
            e for e in kept[pid]
            if e.date < hoi_date or (config.include_same_day and e.date == hoi_date)
        ]
        count, confidence, lift, chi, expected = assess_oracle(
            {gender[pid], *items(prior)}, rules, config.lift_threshold
        )
        rows.append({
            "patient_id": pid, "doi_date": first.isoformat(), "hoi_date": hoi_date.isoformat(),
            "matched_rule_count": count, "max_confidence": confidence, "max_lift": lift,
            "max_chi_squared": chi, "expected": expected,
        })
    matched = [row for row in rows if row["matched_rule_count"]]
    n, expected_count = len(rows), sum(row["expected"] for row in rows)

    def mean(group, field):
        return sum(row[field] for row in group) / len(group) if group else 0.0

    return {
        "signal": {
            "name": spec.name, "doi_items": sorted(str(c) for c in spec.doi),
            "hoi_code": str(spec.hoi), "window": list(spec.window),
        },
        "exposure_count": exposed,
        "instance_count": n,
        "matched_count": len(matched),
        "expected_count": expected_count,
        "absolute_risk": n / exposed,
        "adjusted_risk": (n - expected_count) / exposed,
        "avg_max_confidence_all": mean(rows, "max_confidence"),
        "avg_max_chi_all": mean(rows, "max_chi_squared"),
        "avg_max_confidence_matched": mean(matched, "max_confidence"),
        "avg_max_chi_matched": mean(matched, "max_chi_squared"),
        "hoi_rule_count": len(rules),
        "ab_ratio": after / max(before, 1),
        "matched_averages_defined": bool(matched),
        "instances": rows,
    }
