"""The columnar rule table against row-at-a-time oracles: mined tables,
hoi extraction, instance assessment, rules-file bytes and reader errors."""

import datetime as dt
import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adrrefine import events
from adrrefine.baskets import BasketDatabase, pre_outcome_basket
from adrrefine.codes import Item, ItemKind, gender_item, parse_read
from adrrefine.errors import DomainError, ParseError
from adrrefine.mining import (
    AssociationRule,
    MiningConstraints,
    RuleTable,
    mine_all_rules,
    mine_rules,
    read_rules_csv,
    read_rules_json,
    write_rules_csv,
    write_rules_json,
)
from adrrefine.refine import assess_instance, extract_hoi_rules
from adrrefine.signals import SignalInstance

from conftest import WORKED_EXAMPLE
from oracles import (
    assess_oracle,
    brute_force_rules,
    scalar_rule_measures,
    write_rules_csv_oracle,
    write_rules_json_oracle,
)

HEADER = "antecedent,consequent,left_support,support,confidence,lift,chi_squared\n"
ITEMS = (
    [Item(ItemKind.READ, f"{c}{i}1..") for c in "HN" for i in (1, 3, 5)]
    + [Item(ItemKind.BNF, f"{c}.1.0.0") for c in (1, 2, 10)]
    + [gender_item("F")]
)


def rule_bits(rules):
    """Rules as comparable tuples with every float as its exact bits."""
    return [
        (
            r.antecedent,
            r.consequent,
            *(v.hex() for v in (r.support, r.left_support, r.confidence, r.lift, r.chi_squared)),
        )
        for r in rules
    ]


def oracle_rules(baskets, consequents, constraints):
    """Brute-force rules for each consequent, with measures from their
    counts by the one-rule formula, in `sort_key` order."""
    m = len(baskets)
    rules = []
    for y in consequents:
        found = brute_force_rules(
            baskets, y, constraints.min_left_support, constraints.min_confidence,
            constraints.max_antecedent,
        )
        count_y = sum(y in b for b in baskets)
        for antecedent, values in found.items():
            count_x = sum(antecedent <= b for b in baskets)
            count_xy = sum(antecedent <= b and y in b for b in baskets)
            measures = scalar_rule_measures(count_xy, count_x, count_y, m)
            assert measures[:4] == values[:4]
            assert math.isclose(measures[4], values[4], rel_tol=1e-9, abs_tol=1e-9)
            rules.append(AssociationRule(antecedent, y, *measures))
    return sorted(rules, key=AssociationRule.sort_key)


@st.composite
def corpora(draw):
    """Baskets over a few items at one of several densities, and mining
    constraints."""
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    items = ITEMS[: draw(st.integers(2, 7))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    baskets = []
    for _ in range(draw(st.integers(1, 40))):
        basket = frozenset(it for it in items if rng.random() < density)
        baskets.append(basket or frozenset([rng.choice(items)]))
    constraints = MiningConstraints(
        draw(st.sampled_from([0.001, 0.05, 0.3])),
        draw(st.sampled_from([0.01, 0.3, 1.0])),
        draw(st.integers(1, 3)),
    )
    return baskets, constraints


class TestMinedTables:
    @settings(max_examples=80, deadline=None)
    @given(corpora())
    def test_equal_brute_force_bit_for_bit(self, drawn):
        baskets, constraints = drawn
        db = BasketDatabase([(f"p{j}", b) for j, b in enumerate(baskets)])
        table = mine_all_rules(db, constraints)
        assert rule_bits(table) == rule_bits(oracle_rules(baskets, db.items, constraints))
        for y in db.items:
            want = oracle_rules(baskets, [y], constraints)
            assert rule_bits(mine_rules(db, y, constraints)) == rule_bits(want)

    @settings(max_examples=40, deadline=None)
    @given(corpora())
    def test_extract_hoi_rules_is_the_list_filter(self, drawn):
        baskets, constraints = drawn
        table = mine_all_rules(BasketDatabase([(f"p{j}", b) for j, b in enumerate(baskets)]), constraints)
        for item in ITEMS:
            if item.kind is ItemKind.READ:
                got = extract_hoi_rules(table, parse_read(item.value))
                assert isinstance(got, RuleTable)
                assert got == [r for r in table if r.consequent == item]
                assert extract_hoi_rules(list(table), parse_read(item.value)) == got


@functools.cache
def worked_store() -> events.EventStore:
    return events.load(str(WORKED_EXAMPLE / "patients.csv"), str(WORKED_EXAMPLE / "events.csv"))


# Items in the worked example's baskets, and two in none of them.
ANTECEDENT_POOL = [
    gender_item("F"), gender_item("M"),
    *(Item(ItemKind.READ, c) for c in ("H01..", "H02..", "H03..", "Z99..")),
    *(Item(ItemKind.BNF, c) for c in ("1.1.0.0", "2.2.0.0", "9.9.0.0")),
]
OUTCOME = Item(ItemKind.READ, "H05..")
CUTOFFS = [dt.date(y, 1, 1) for y in (1998, 2000, 2004, 2006, 2010, 2012)]


@st.composite
def assessment_cases(draw):
    rules = [
        AssociationRule(
            frozenset(draw(st.lists(st.sampled_from(ANTECEDENT_POOL), min_size=1, max_size=3))),
            OUTCOME,
            0.001,
            0.01,
            draw(st.floats(0.0, 1.0)),
            draw(st.sampled_from([0.5, 0.9, 1.0, 1.2, 3.0])),
            draw(st.floats(0.0, 500.0)),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]
    instance = SignalInstance(
        draw(st.sampled_from(["1", "2", "3", "4"])), dt.date(1997, 1, 1),
        draw(st.sampled_from(CUTOFFS)),
    )
    return rules, instance, draw(st.sampled_from([0.5, 1.0, 1.2]))


def assessment_tuple(a):
    return (a.matched_rule_count, a.max_confidence, a.max_lift, a.max_chi_squared, a.expected)


class TestAssessInstance:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(assessment_cases())
    # Antecedents of sizes 1 to 3 in one table (pads of 2, 1 and 0), one
    # lift exactly at the threshold, and a rule on an absent item.
    @example(
        (
            [
                AssociationRule(frozenset(ANTECEDENT_POOL[i:j]), OUTCOME, 0.1, 0.2, c, lift, chi)
                for i, j, c, lift, chi in [
                    (0, 1, 0.1, 1.0, 5.0), (0, 2, 0.3, 0.9, 7.0), (2, 5, 0.2, 1.5, 6.0),
                    (6, 7, 0.4, 1.0, 1.0), (5, 6, 0.9, 9.0, 9.0),
                ]
            ],
            SignalInstance("1", dt.date(2003, 6, 5), dt.date(2005, 8, 1)),
            1.0,
        )
    )
    def test_equals_frozenset_subset_oracle(self, case):
        rules, instance, threshold = case
        basket = pre_outcome_basket(worked_store(), instance.patient_id, instance.hoi_date)
        want = assess_oracle(basket, rules, threshold)
        for given_rules in (rules, RuleTable.from_rules(rules)):
            got = assess_instance(worked_store(), instance, given_rules, lift_threshold=threshold)
            assert assessment_tuple(got) == want

    def test_lift_at_threshold_is_not_expected_and_pads_match(self):
        instance = SignalInstance("1", dt.date(2003, 6, 5), dt.date(2005, 8, 1))
        basket = pre_outcome_basket(worked_store(), "1", instance.hoi_date)
        present = sorted(basket, key=lambda it: it.token)
        assert len(present) >= 3
        rules = [
            AssociationRule(frozenset(present[:size]), OUTCOME, 0.1, 0.2, 0.3, 1.0, 2.0)
            for size in (1, 2, 3)
        ]
        table = RuleTable.from_rules(rules)
        assert table.antecedent.shape == (3, 3)
        assert table.antecedent.tolist()[0][1:] == [-1, -1]
        got = assess_instance(worked_store(), instance, table, lift_threshold=1.0)
        assert assessment_tuple(got) == (3, 0.3, 1.0, 2.0, False)
        none = [AssociationRule(frozenset([Item(ItemKind.READ, "Z99..")]), OUTCOME, 0.1, 0.2, 0.3, 2.0, 2.0)]
        assert assessment_tuple(assess_instance(worked_store(), instance, none)) == (0, 0.0, 0.0, 0.0, False)


class TestWriters:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(
                st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=3),
                st.text(min_size=1, max_size=6),
                st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=5, max_size=5),
            ),
            max_size=12,
        )
    )
    def test_writers_equal_row_at_a_time_writers(self, tmp_path, rows):
        # Tokens with commas, quotes, line breaks and non-ASCII text;
        # reals with -0.0, NaN and infinities.
        rules = [
            AssociationRule(
                frozenset(Item(ItemKind.READ, t) for t in antecedent),
                Item(ItemKind.READ, consequent),
                *numbers,
            )
            for antecedent, consequent, numbers in rows
            if consequent not in antecedent
        ]
        for write, oracle in (
            (write_rules_csv, write_rules_csv_oracle),
            (write_rules_json, write_rules_json_oracle),
        ):
            write(rules, str(tmp_path / "got"))
            oracle(rules, str(tmp_path / "want"))
            assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def write_csv(tmp_path, *rows: str):
    path = tmp_path / "rules.csv"
    path.write_text(HEADER + "".join(row + "\n" for row in rows))
    return str(path)


GOOD_ROW = "B11..,A11..,0.2,0.1,0.5,1.5,2.0"


# Each malformed row, after one good row and a blank line, with the
# message the row-at-a-time reader gave.
CSV_ROW_FAULTS = [
    ("B11..,A11..,0.2,0.1,0.5,1.5", "expected 7 fields, got 6"),
    ("B11..,A11..,0.2,0.1,0.5,1.5,2.0,3", "expected 7 fields, got 8"),
    (",A11..,0.2,0.1,0.5,1.5,2.0", "read code must have exactly 5 characters: ''"),
    ("A11..|B11..,A11..,0.2,0.1,0.5,1.5,2.0", "consequent A11.. also in antecedent"),
    ("Q9x!.,A11..,0.2,0.1,0.5,1.5,2.0", "read code contains invalid character '!': 'Q9x!.'"),
    ("B11..,A11..,0.2,abc,0.5,1.5,2.0", "could not convert string to float: 'abc'"),
    # Two faults in one row: the token comes first.
    ("Q9x!.,A11..,0.2,abc,0.5,1.5,2.0", "read code contains invalid character '!': 'Q9x!.'"),
    ("B11..,A11..,x,abc,0.5,1.5,2.0", "could not convert string to float: 'x'"),
]


# Each change that makes a good rules.json object malformed, with its message.
JSON_OBJECT_FAULTS = [
    ({"left_support": None}, "float() argument must be a string or a real number, not 'NoneType'"),
    ({"antecedent": ["A11..", "B11.."]}, "consequent A11.. also in antecedent"),
    ({"antecedent": []}, "rule antecedent must not be empty"),
    ({"antecedent": "B11.."}, "antecedent must be a list, not a string"),
    ({"consequent": "Q9x!."}, "read code contains invalid character '!': 'Q9x!.'"),
    ({"left_support": True}, "left_support must be a number, not true"),
    ({"support": "0.05"}, 'support must be a number, not "0.05"'),
    ({"lift": "1_5"}, 'lift must be a number, not "1_5"'),
    # Two faults in one object: the token comes first.
    ({"consequent": "Q9x!.", "lift": "1.5"}, "read code contains invalid character '!': 'Q9x!.'"),
    ({"antecedent": {"B11..": 1}}, "antecedent must be a list, not an object"),
    ({"lift": math.nan}, "lift must be finite, not nan"),
    ({"chi_squared": -math.inf}, "chi_squared must be finite, not -inf"),
    ({"support": 10**400}, "support must fit a float, not an integer of 401 digits"),
    ({"antecedent": ["B11..", [1, "a"]]}, "item must be a string: [1, 'a']"),
    ({"consequent": {"A11..": 1}}, "item must be a string: {'A11..': 1}"),
]


class TestReaderErrors:
    @pytest.mark.parametrize(
        "row, message",
        CSV_ROW_FAULTS,
    )
    def test_message_and_line(self, tmp_path, row, message):
        path = write_csv(tmp_path, GOOD_ROW, "", row, GOOD_ROW, "Q9x!.,A11..,0.2,0.1,0.5,1.5,2.0")
        with pytest.raises(ParseError) as info:
            read_rules_csv(path)
        assert (str(info.value), info.value.source, info.value.line) == (
            f"{path}:4: {message}", path, 4,
        )

    @pytest.mark.parametrize(
        "text", [" 0.5", "0.5 ", "\t2", "1e-3", "inf", "-Infinity", "nan", "1_0", "+.5", "5.",
                 "١٢", "1__0", "_1", "0x1p-3", ".", "", "1e", "0.5x"],
    )
    def test_measures_parse_as_float_does(self, tmp_path, text):
        path = write_csv(tmp_path, GOOD_ROW, f"B11..,A11..,0.2,{text},0.5,1.5,2.0")
        try:
            want = float(text)
        except ValueError as exc:
            with pytest.raises(ParseError, match=f"^{path}:3: ") as info:
                read_rules_csv(path)
            assert str(info.value).endswith(str(exc))
            return
        if not math.isfinite(want):  # a NaN or infinite measure has no defined rule
            with pytest.raises(ParseError, match=f"^{path}:3: support must be finite, not {want}$"):
                read_rules_csv(path)
            return
        assert read_rules_csv(path)[1].support == want

    @pytest.mark.parametrize(
        "changes, message",
        JSON_OBJECT_FAULTS,
    )
    def test_json_messages(self, tmp_path, changes, message):
        numbers = dict(left_support=0.2, support=0.1, confidence=0.5, lift=1.5, chi_squared=2.0)
        good = {"antecedent": ["B11.."], "consequent": "A11..", **numbers}
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([good, good | changes, good | {"lift": "x"}]))
        with pytest.raises(ParseError) as info:
            read_rules_json(str(path))
        assert str(info.value) == f"{path}: bad rule object: {message}"

    def test_json_missing_field(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('[{"antecedent": ["B11.."], "consequent": "A11..", "support": 0.1}]')
        with pytest.raises(ParseError, match=r"bad rule object: 'left_support'$"):
            read_rules_json(str(path))


class TestTableSequence:
    def table(self):
        return mine_all_rules(
            BasketDatabase([(f"p{j}", frozenset(ITEMS[j % 5 : j % 5 + 3])) for j in range(30)]),
            MiningConstraints(0.05, 0.05, 3),
        )

    def test_iteration_shares_items_and_antecedent_sets(self):
        table = self.table()
        rules = list(table)
        assert len(rules) == len(table) > 0
        by_row: dict[tuple, frozenset] = {}
        for rule, row, y in zip(rules, table.antecedent.tolist(), table.consequent.tolist()):
            assert rule.consequent is table.items[y]
            items = [table.items[i] for i in row if i >= 0]
            assert all(any(it is member for member in rule.antecedent) for it in items)
            assert by_row.setdefault(tuple(row), rule.antecedent) is rule.antecedent
        assert len(by_row) < len(rules)

    def test_rules_are_built_on_access(self):
        table = self.table()
        assert table[0] == table[0] and table[0] is not table[0]
        assert table[-1] == list(table)[-1]
        with pytest.raises(IndexError):
            table[len(table)]

    def test_sequence_behaviour(self):
        table = self.table()
        rules = list(table)
        assert table == rules and rules == table and not (table != rules)
        assert table[2:5] == rules[2:5] and isinstance(table[2:5], RuleTable)
        mask = table.lift > 1.0
        assert table[mask] == [r for r in rules if r.lift > 1.0]
        assert table[:0] == [] and len(table[:0]) == 0
        assert table != rules[:-1]
        assert RuleTable.from_rules(rules) == table
        assert RuleTable.from_rules(table) is table
        with pytest.raises(TypeError):
            hash(table)

    @pytest.mark.parametrize(
        "key",
        [
            np.array([4, 0, -1, 4, 2]),
            np.array([3, 1], dtype=np.uint8),
            [5, -2, 0],
            [],
            np.array([], dtype=np.int64),
            "mask",
            "mask_list",
            slice(1, None, 3),
            slice(None, None, -1),
        ],
    )
    def test_key_kinds_equal_plain_indexing(self, key):
        # Integer keys gather with `take`; every key must give the table
        # that indexing each column with it gives.
        table = self.table()
        if isinstance(key, str):
            mask = table.lift > 1.0
            key = mask if key == "mask" else mask.tolist()
        names = [
            "antecedent", "consequent", "left_support", "support", "confidence", "lift",
            "chi_squared",
        ]
        want = RuleTable(table.items, *(getattr(table, name)[key] for name in names))
        got = table[key]
        assert got == want and got.items is table.items
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype

    def test_invariants_checked_on_columns(self):
        items = ITEMS[:3]
        columns = [np.zeros(2)] * 5
        with pytest.raises(DomainError, match="antecedent must not be empty"):
            RuleTable(items, np.array([[0], [-1]], dtype=np.int32), np.array([1, 2], np.int32), *columns)
        with pytest.raises(DomainError, match="also in antecedent"):
            RuleTable(items, np.array([[0, -1], [1, 2]], dtype=np.int32), np.array([1, 2], np.int32), *columns)
