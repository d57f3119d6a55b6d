"""Independent oracles used by the tests.

These deliberately avoid the library's code paths: supports come from
scanning tid-sets per candidate, and the chi-squared statistic is the
textbook count-based 2x2 form. Rule matching is a frozenset subset
test per rule, an outcome record is a string-prefix test or the
truncation rule, a family prescription is the truncation rule, and the
rules-file writers go a rule at a time through `csv.writer` and
`json.dump`, and synthetic patients draw from streams numpy seeds
itself. The library must agree with them.
"""

import csv
import json
from itertools import combinations

import numpy as np

from adrrefine import synth
from adrrefine.codes import bnf_level, bnf_truncate, read_level, read_truncate


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
