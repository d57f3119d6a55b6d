import dataclasses
import hashlib
import itertools
import json
import math
import random
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrrefine import mining
from adrrefine.baskets import BasketDatabase
from adrrefine.codes import Item, ItemKind, gender_item
from adrrefine.errors import ConfigError, DomainError, ParseError
from adrrefine.mining import (
    AssociationRule,
    MiningConstraints,
    RuleMeasures,
    chi_squared,
    contingency_from_counts,
    min_count_for,
    mine_all_rules,
    mine_rules,
    read_rules_csv,
    read_rules_json,
    rule_measures,
    write_rules_csv,
    write_rules_json,
)

from oracles import brute_force_rules, chi2_counts_oracle, scalar_rule_measures

ITEM_POOL = [Item(ItemKind.READ, f"{c}{i:02d}..") for c in "ABCDE" for i in range(4)]


def random_db(
    rng: random.Random, max_baskets=300, max_items=20, min_baskets=20, min_items=4, density=None
):
    n_items = rng.randint(min_items, max_items)
    n_baskets = rng.randint(min_baskets, max_baskets)
    items = ITEM_POOL[:n_items]
    density = rng.uniform(0.08, 0.5) if density is None else density
    baskets = []
    for j in range(n_baskets):
        members = frozenset(it for it in items if rng.random() < density)
        if not members:
            members = frozenset([rng.choice(items)])
        baskets.append((f"p{j}", members))
    return BasketDatabase(baskets)


class TestConstraints:
    def test_defaults(self):
        c = MiningConstraints()
        assert (c.min_left_support, c.min_confidence, c.max_antecedent) == (0.001, 0.01, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_left_support": 0.0},
            {"min_left_support": 1.5},
            {"min_confidence": 0.0},
            {"min_confidence": -0.2},
            {"min_confidence": True},
            {"min_left_support": True},
            {"min_left_support": "0.1"},
            {"min_confidence": None},
            {"max_antecedent": 0},
            {"max_antecedent": 2.5},
            {"max_antecedent": 3.0},
            {"max_antecedent": float("inf")},
            {"max_antecedent": True},
            {"max_antecedent": "3"},
            {"max_antecedent": None},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            MiningConstraints(**kwargs)

    def test_numpy_integer_size(self):
        assert MiningConstraints(max_antecedent=np.int64(2)).max_antecedent == 2

    def test_numpy_and_integer_floors(self):
        c = MiningConstraints(min_left_support=np.float32(0.5), min_confidence=1)
        assert (c.min_left_support, c.min_confidence) == (0.5, 1)

    def test_min_count_threshold(self):
        rng = random.Random(31)
        for _ in range(500):
            m = rng.randint(1, 5000)
            t = rng.uniform(1e-4, 1.0)
            c = min_count_for(t, m)
            assert c / m >= t
            assert c == 1 or (c - 1) / m < t
        # The two float corrections: 0.07 * 100 is 7.000000000000001, and
        # 3 times the float just above 1/3 rounds down to 1.0.
        assert min_count_for(0.07, 100) == 7
        assert min_count_for(float(np.nextafter(1 / 3, 1)), 3) == 2


class TestContingency:
    def test_independence_gives_equal_cells(self):
        t = contingency_from_counts(25, 50, 50, 100)
        assert t.observed == t.expected == (0.25, 0.25, 0.25, 0.25)

    def test_perfect_overlap(self):
        t = contingency_from_counts(50, 50, 50, 100)
        assert t.observed == (0.5, 0.0, 0.0, 0.5)

    def test_cells_sum_to_one(self):
        rng = random.Random(32)
        for _ in range(1000):
            m = rng.randint(2, 2000)
            cx = rng.randint(1, m)
            cy = rng.randint(1, m)
            cxy = rng.randint(max(0, cx + cy - m), min(cx, cy))
            t = contingency_from_counts(cxy, cx, cy, m)
            assert math.isclose(sum(t.observed), 1.0, abs_tol=1e-12)
            assert math.isclose(sum(t.expected), 1.0, abs_tol=1e-12)
            assert all(v >= 0 for v in t.observed + t.expected)


class TestChiSquared:
    def test_zero_when_observed_equals_expected(self):
        t = contingency_from_counts(25, 50, 50, 100)
        assert chi_squared(t) == 0.0

    def test_hand_computed_perfect_association(self):
        # counts 50/0/0/50 in 100 baskets: every cell contributes 25.
        t = contingency_from_counts(50, 50, 50, 100)
        assert chi_squared(t) == pytest.approx(100.0, abs=1e-12)

    def test_degenerate_marginal_flagged_as_zero(self):
        t = contingency_from_counts(50, 50, 100, 100)
        assert t.degenerate
        assert chi_squared(t) == 0.0

    def test_matches_count_oracle(self):
        rng = random.Random(33)
        for _ in range(1000):
            m = rng.randint(2, 3000)
            cx = rng.randint(1, m)
            cy = rng.randint(1, m)
            cxy = rng.randint(max(0, cx + cy - m), min(cx, cy))
            t = contingency_from_counts(cxy, cx, cy, m)
            got = chi_squared(t)
            want = chi2_counts_oracle(cxy, cx, cy, m)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


class TestRuleMeasures:
    def test_simple_arithmetic(self):
        meas = rule_measures(1, 2, 2, 4)
        assert meas.support == 0.25
        assert meas.left_support == 0.5
        assert meas.confidence == 0.5
        assert meas.lift == 1.0
        assert meas.chi_squared == 0.0

    def test_perfect_implication(self):
        meas = rule_measures(2, 2, 2, 4)
        assert meas.confidence == 1.0
        assert meas.lift == 2.0

    def test_independence_means_unit_lift_and_zero_chi(self):
        meas = rule_measures(6, 12, 20, 40)  # 6*40 == 12*20
        assert meas.lift == 1.0
        assert meas.chi_squared == 0.0

    def test_empty_marginals_rejected(self):
        with pytest.raises(DomainError):
            rule_measures(0, 0, 2, 4)
        with pytest.raises(DomainError):
            rule_measures(0, 2, 0, 4)
        with pytest.raises(DomainError):
            rule_measures(6, 5, 7, 10)  # more joint than antecedent baskets
        with pytest.raises(DomainError):
            rule_measures(1, 9, 8, 10)  # union of X and Y would exceed m
        with pytest.raises(DomainError, match="basket count must be positive"):
            rule_measures(0, 1, 1, 0)

    @pytest.mark.parametrize(
        "counts",
        [(2.9, 3, 3, 4), (2, 3.0, 3, 4), (2, 3, 3, 4.5), (True, 3, 3, 4), ("2", 3, 3, 4)],
    )
    def test_counts_that_are_not_integers_rejected(self, counts):
        # `int()` would truncate 2.9 to 2 and compute another rule's measures.
        with pytest.raises(DomainError, match="basket counts must be integers"):
            rule_measures(*counts)
        with pytest.raises(DomainError, match="basket counts must be integers"):
            contingency_from_counts(*counts)

    def test_numpy_integer_counts(self):
        counts = (np.int64(1), np.int32(2), np.uint8(2), np.int16(4))
        assert rule_measures(*counts) == rule_measures(1, 2, 2, 4)
        assert contingency_from_counts(*counts) == contingency_from_counts(1, 2, 2, 4)

    def test_identities_on_random_counts(self):
        rng = random.Random(34)
        for _ in range(1000):
            m = rng.randint(2, 2000)
            cx = rng.randint(1, m)
            cy = rng.randint(1, m)
            cxy = rng.randint(max(0, cx + cy - m), min(cx, cy))
            meas = rule_measures(cxy, cx, cy, m)
            # confidence * left_support == support, exactly on the count scale
            assert Fraction(cxy, cx) * Fraction(cx, m) == Fraction(cxy, m)
            assert math.isclose(
                meas.confidence * meas.left_support, meas.support, rel_tol=1e-12, abs_tol=1e-15
            )
            degenerate = cx == m or cy == m
            if not degenerate:
                assert (meas.lift == 1.0) == (meas.chi_squared == 0.0)
                assert (cxy * m == cx * cy) == (meas.chi_squared == 0.0)
            assert math.isclose(
                meas.chi_squared,
                chi2_counts_oracle(cxy, cx, cy, m),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )

    def test_symmetry_in_x_and_y(self):
        rng = random.Random(35)
        for _ in range(300):
            m = rng.randint(2, 1000)
            cx = rng.randint(1, m)
            cy = rng.randint(1, m)
            cxy = rng.randint(max(0, cx + cy - m), min(cx, cy))
            a = rule_measures(cxy, cx, cy, m)
            b = rule_measures(cxy, cy, cx, m)
            assert a.lift == b.lift
            assert math.isclose(a.chi_squared, b.chi_squared, rel_tol=1e-9, abs_tol=1e-9)


# The largest basket count whose square, the largest product the
# measures divide, is below 2**53; above it the columns use Python ints.
EXACT_M = math.isqrt(2**53 - 1)


@st.composite
def count_rows(draw):
    """A basket count m and rows (xy, x, y) of consistent counts, drawn
    to hit degenerate marginals (x = m, y = m), xy = 0 and both sides of
    EXACT_M."""
    m = draw(
        st.one_of(
            st.integers(1, 3000),
            st.integers(EXACT_M - 40, EXACT_M + 40),
            st.integers(2**27, 10**12),
        )
    )
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.one_of(st.just(m), st.integers(1, m)))
        y = draw(st.one_of(st.just(m), st.integers(1, m)))
        lo, hi = max(0, x + y - m), min(x, y)
        rows.append((draw(st.one_of(st.just(lo), st.just(hi), st.integers(lo, hi))), x, y))
    return m, rows


class TestMeasureColumns:
    # Counts where squaring by `d * d` instead of `** 2` moves chi-squared
    # by one unit in the last place, on both sides of EXACT_M.
    @settings(max_examples=400, deadline=None)
    @given(count_rows())
    @example((200, [(130, 179, 131), (0, 20, 180), (50, 200, 50), (9, 9, 200)]))
    @example((EXACT_M, [(21759742, 33391407, 32447788), (0, 1, 1), (3, EXACT_M, 3)]))
    @example((EXACT_M + 1, [(24824010, 45878481, 40233596), (0, 1, 1), (3, 3, EXACT_M + 1)]))
    def test_columns_equal_scalar_formula_bit_for_bit(self, drawn):
        m, rows = drawn
        xy, x, y = (np.array(column, dtype=np.int64) for column in zip(*rows))
        columns = mining._measure_columns(xy, x, y, m)
        for k, row in enumerate(rows):
            want = scalar_rule_measures(*row, m)
            assert tuple(float(column[k]) for column in columns) == want
            assert tuple(rule_measures(*row, m)) == want
            assert chi_squared(contingency_from_counts(*row, m)) == want[4]

    def test_blocks_fill_the_same_columns(self, monkeypatch):
        rng = np.random.default_rng(7)
        m = 1000
        x, y = rng.integers(1, m // 2, (2, 50))
        xy = np.minimum(x, y) // rng.integers(1, 4, 50)
        whole = mining._measure_columns(xy, x, y, m)
        monkeypatch.setattr(mining, "_MEASURE_BLOCK", 7)
        for got, want in zip(mining._measure_columns(xy, x, y, m), whole):
            assert got.dtype == np.float64 and np.array_equal(got, want)


def ranked_gram(db, order, prefix, rows):
    """`mining._gram` of the item ids `rows` over the baskets holding every
    item of `prefix`, with one column per item of `order` (item ids),
    scattered from its tid list as the miner scatters its frequent items
    in rank order; also the item ids of the Gram's rows, which are `rows`
    in `order`."""
    ranked = np.zeros((db.m, len(order)), np.uint8)
    for rank, i in enumerate(order.tolist()):
        ranked[db.tid_lists[i], rank] = 1
    tails = np.sort(np.argsort(order)[rows])
    gram = mining._gram(ranked, db.cover(prefix) if prefix else None, tails)
    return gram, order[tails]


class TestGram:
    @pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.6, 0.95])
    def test_cells_equal_cover_counts(self, monkeypatch, density):
        # A budget of a few floats forces many chunks per Gram; columns in
        # a shuffled order give tail spans with and without gaps.
        monkeypatch.setattr(mining, "_GRAM_BYTES", 64)
        rng = random.Random(int(density * 100))
        db = random_db(rng, max_baskets=250, min_baskets=150, min_items=12, density=density)
        n = len(db.items)
        order = np.array(rng.sample(range(n), n))
        for _ in range(15):
            ids = rng.sample(range(n), rng.randint(2, 8))
            prefix = tuple(sorted(ids[:rng.randint(0, 2)]))
            extra = tuple(ids[len(prefix) : len(prefix) + rng.randint(0, 1)])
            rows = np.array(sorted(set(ids) - set(prefix) - set(extra)) or [ids[-1]])
            gram, rows = ranked_gram(db, order, prefix + extra, rows)
            for i, r in enumerate(rows.tolist()):
                for j, s in enumerate(rows.tolist()):
                    want = len(db.cover(prefix + extra + (r, s)))
                    assert gram[i, j] == want, (prefix, extra, r, s)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_one_and_two_chunks(self, monkeypatch, chunks):
        # One chunk (the default budget here) returns the float32 product
        # itself; two chunks add their products in int64.
        rng = random.Random(60 + chunks)
        db = random_db(rng, max_baskets=250, min_baskets=150, min_items=12, density=0.3)
        n = len(db.items)
        order = np.arange(n)
        for _ in range(15):
            ids = rng.sample(range(n), rng.randint(3, 8))
            prefix = tuple(sorted(ids[:rng.randint(0, 1)]))
            rows = np.array(sorted(set(ids) - set(prefix)))
            tids = db.cover(prefix)
            if chunks == 2:
                # A budget whose step is the cover's size rounded up to even, halved.
                per_basket = max(4 * len(rows), rows[-1] - rows[0] + 1)
                monkeypatch.setattr(mining, "_GRAM_BYTES", per_basket * -(-len(tids) // 2))
            gram, rows = ranked_gram(db, order, prefix, rows)
            assert gram.dtype == (np.float32 if chunks == 1 or len(tids) < 2 else np.int64)
            for i, r in enumerate(rows.tolist()):
                for j, s in enumerate(rows.tolist()):
                    assert gram[i, j] == len(db.cover(prefix + (r, s))), (prefix, r, s)

    @pytest.mark.parametrize("budget", [None, 64])
    def test_unsorted_prefix_and_rows(self, monkeypatch, budget):
        # Frequent-itemset counting copies items in ascending-count order,
        # not id order: here the columns are in descending id order, so
        # the Gram's rows are too; a budget of a few floats forces many
        # chunks.
        if budget is not None:
            monkeypatch.setattr(mining, "_GRAM_BYTES", budget)
        rng = random.Random(65)
        db = random_db(rng, max_baskets=250, min_baskets=150, min_items=12, density=0.4)
        order = np.arange(len(db.items))[::-1]
        for _ in range(15):
            ids = rng.sample(range(len(db.items)), rng.randint(4, 9))
            prefix = tuple(sorted(ids[:2], reverse=True))
            tids = db.cover(prefix)
            gram, rows = ranked_gram(db, order, prefix, np.array(ids[2:]))
            assert rows.tolist() == sorted(ids[2:], reverse=True)
            assert gram.dtype == (np.float32 if budget is None or len(tids) < 2 else np.int64)
            for i, r in enumerate(rows.tolist()):
                for j, s in enumerate(rows.tolist()):
                    assert gram[i, j] == len(db.cover(prefix + (r, s))), (prefix, r, s)


def check_joint_counts(monkeypatch, held, budget, counted):
    """`_joint_counts` over a target's `_target_bitsets`, packed from the
    counting copy of every item, of the items above the median count
    only (as `mine_all_rules` counts), or of those without the target (as
    `mine_rules` counts), against cover counts. Rows hold only counted
    items, and the other items' bitset rows stay zero."""
    if budget is not None:
        monkeypatch.setattr(mining, "_GRAM_BYTES", budget)
        monkeypatch.setattr(mining, "_COUNT_BYTES", budget)
    rng = random.Random(held)
    target = Item(ItemKind.READ, "Z99..")
    n_baskets = rng.randint(150, 250)
    chosen = set(rng.sample(range(n_baskets), held))
    baskets = []
    for j in range(n_baskets):
        members = {it for it in ITEM_POOL[:14] if rng.random() < 0.4} or {ITEM_POOL[0]}
        baskets.append((f"p{j}", frozenset(members | ({target} if j in chosen else set()))))
    db = BasketDatabase(baskets)
    y = db.item_ids[target]
    assert db.counts[y] == held
    every, excluded = counted == "every item", "excluded" in counted
    min_count = 1 if every else int(np.median(db.counts)) + 1
    freq = mining.frequent_antecedents(db, min_count, 1, target if excluded else None)
    ranked = sorted(freq.item_of.tolist())
    assert (len(ranked) == len(db.items)) == every
    assert (y in ranked) == (every or held >= min_count and not excluded)
    # Rows of 1 to 5 counted ids, padded with -1; some may hold the target itself.
    ids = [sorted(rng.sample(ranked, rng.randint(1, min(5, len(ranked))))) for _ in range(120)]
    rows = np.array([row + [-1] * (5 - len(row)) for row in ids], dtype=np.int32)
    bitsets = mining._target_bitsets(db, freq, y)
    assert not bitsets[np.setdiff1d(np.arange(len(db.items)), ranked)].any()
    assert (bitsets[-1] == np.uint64(2**64 - 1)).all()
    counts = mining._joint_counts(bitsets, rows)
    assert counts.dtype == np.int64
    assert counts.tolist() == [len(db.cover(tuple(row) + (y,))) for row in ids]


class TestJointCounts:
    # Targets held by one basket and by baskets either side of the 64-bit
    # word edges; a budget of a few hundred bytes packs the target's
    # baskets eight at a time (a whole byte of bits each) and counts one
    # antecedent row at a time.
    @pytest.mark.parametrize("budget", [None, 200])
    @pytest.mark.parametrize("held", [1, 63, 64, 65, 129])
    def test_counts_equal_cover_counts(self, monkeypatch, held, budget):
        check_joint_counts(monkeypatch, held, budget, "every item")

    @pytest.mark.parametrize("budget", [None, 200])
    @pytest.mark.parametrize("held", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("counted", ["frequent", "frequent, target excluded"])
    def test_copy_without_rare_items_or_target(self, monkeypatch, held, budget, counted):
        check_joint_counts(monkeypatch, held, budget, counted)


class TestRowOrder:
    @pytest.mark.parametrize(
        "low, high, shape, n_major",
        [
            (-1, 4, (300, 3), 0),  # many duplicate rows: ties keep their order
            (-1, 4, (300, 3), 1),
            (-1, 50, (300, 2), 2),
            (-1, 1000, (200, 7), 1),  # eight keys of base 1002: two packed keys
            (-1, 2**20, (200, 3), 0),  # one packed key, with no room for the row index
            (-1, 2_500_000, (200, 3), 0),  # base**3 between 2**63 and 2**64: two keys
            (2**31 - 4, 2**31, (200, 3), 1),  # one packed key per id column
        ],
    )
    def test_equals_lexsort(self, low, high, shape, n_major):
        rng = np.random.default_rng(high + shape[1])
        rows = rng.integers(low, high, shape).astype(np.int32)
        rows[rng.random(shape) < 0.2] = -1
        major = [rng.integers(0, 5, shape[0]) for _ in range(n_major)]
        want = np.lexsort((*rows.T[::-1], *major))
        assert np.array_equal(mining._row_order(rows, *major), want)

    def test_empty_matrix(self):
        rows = np.empty((0, 3), dtype=np.int32)
        order = mining._row_order(rows, np.empty(0, np.int64))
        assert order.shape == (0,) and order.dtype == np.intp


def brute_force_itemsets(db, min_count, max_size, exclude_id):
    """Every itemset of at most `max_size` ids, other than `exclude_id`,
    held by at least `min_count` baskets, as sorted id tuple -> count."""
    baskets = [{db.item_ids[it] for it in basket} for _, basket in db.baskets]
    universe = [i for i in range(len(db.items)) if i != exclude_id]
    found = {}
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(universe, size):
            count = sum(1 for basket in baskets if basket.issuperset(combo))
            if count >= min_count:
                found[combo] = count
    return found


class TestFrequentAntecedents:
    @pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
    def test_levels_match_brute_force(self, max_size):
        rng = random.Random(80 + max_size)
        for _ in range(6):
            db = random_db(rng, max_baskets=80, max_items=9, density=rng.uniform(0.2, 0.6))
            min_count = rng.randint(1, 12)
            exclude = rng.choice([None, *db.items])
            exclude_id = None if exclude is None else db.item_ids[exclude]
            freq = mining.frequent_antecedents(db, min_count, max_size, exclude)
            want = brute_force_itemsets(db, min_count, max_size, exclude_id)
            # The tracer's read of the result: one id sequence per itemset.
            assert Counter(len(ids) for ids in freq) == Counter(map(len, want))
            assert {tuple(ids) for ids in freq} == set(want)
            for size, (ids, counts) in enumerate(freq.levels, 1):
                assert ids.shape == (len(counts), size)
                assert [tuple(row) for row in ids.tolist()] == sorted(map(tuple, ids.tolist()))
                assert counts.tolist() == [want[tuple(row)] for row in ids.tolist()]


def skewed_db(rng: random.Random, n_items: int, n_baskets: int) -> BasketDatabase:
    """Baskets over the first `n_items` of ITEM_POOL, each item held with
    its own probability, from about 3% to 80%, in shuffled token order."""
    presence = [0.8 * (k + 1) ** -1.2 + 0.02 for k in range(n_items)]
    rng.shuffle(presence)
    baskets = []
    for j in range(n_baskets):
        members = frozenset(it for it, p in zip(ITEM_POOL, presence) if rng.random() < p)
        baskets.append((f"p{j}", members or frozenset([ITEM_POOL[0]])))
    return BasketDatabase(baskets)


class TestCountOrder:
    # Counting numbers items by ascending basket count; the results are
    # in item ids whatever that order is.
    def test_levels_match_brute_force_on_skewed_counts(self):
        rng = random.Random(95)
        for _ in range(4):
            db = skewed_db(rng, n_items=10, n_baskets=120)
            by_count = np.argsort(db.counts, kind="stable")
            assert not np.array_equal(by_count, np.arange(len(db.items)))
            min_count = rng.randint(2, 6)
            exclude = rng.choice([None, *db.items])
            exclude_id = None if exclude is None else db.item_ids[exclude]
            freq = mining.frequent_antecedents(db, min_count, 4, exclude)
            want = brute_force_itemsets(db, min_count, 4, exclude_id)
            assert {tuple(ids) for ids in freq} == set(want)
            for size, (ids, counts) in enumerate(freq.levels, 1):
                assert ids.shape == (len(counts), size)
                assert [tuple(row) for row in ids.tolist()] == sorted(map(tuple, ids.tolist()))
                assert counts.tolist() == [want[tuple(row)] for row in ids.tolist()]

    def test_renaming_items_against_their_counts_gives_the_same_rules(self):
        rng = random.Random(96)
        db = skewed_db(rng, n_items=12, n_baskets=150)
        # The most common item takes the first token, so in the renamed
        # corpus token order is the reverse of count order.
        by_count = sorted(range(len(db.items)), key=lambda k: (-db.counts[k], k))
        rename = {db.items[k]: ITEM_POOL[j] for j, k in enumerate(by_count)}
        back = {new: old for old, new in rename.items()}
        renamed = BasketDatabase(
            [(pid, frozenset(rename[it] for it in basket)) for pid, basket in db.baskets]
        )
        assert (np.diff(renamed.counts) <= 0).all() and not (np.diff(db.counts) <= 0).all()

        def restored(rules):
            return {
                dataclasses.replace(
                    r,
                    antecedent=frozenset(back[it] for it in r.antecedent),
                    consequent=back[r.consequent],
                )
                for r in rules
            }

        constraints = MiningConstraints(0.02, 0.05, 3)
        want = mine_all_rules(db, constraints)
        got = mine_all_rules(renamed, constraints)
        assert any(len(r.antecedent) == 3 for r in want)
        assert len(got) == len(want) and restored(got) == set(want)
        for consequent in rng.sample(db.items, 3):
            want = mine_rules(db, consequent, constraints)
            got = mine_rules(renamed, rename[consequent], constraints)
            assert len(got) == len(want) and restored(got) == set(want)


def assert_levels_match_brute_force(db, freq, min_count, max_size, exclude_id=None):
    want = brute_force_itemsets(db, min_count, max_size, exclude_id)
    assert {tuple(ids) for ids in freq} == set(want)
    for size, (ids, counts) in enumerate(freq.levels, 1):
        assert ids.shape == (len(counts), size)
        assert [tuple(row) for row in ids.tolist()] == sorted(map(tuple, ids.tolist()))
        assert counts.tolist() == [want[tuple(row)] for row in ids.tolist()]


def gram_calls(monkeypatch) -> list:
    """Each `_gram` call the miner makes from now on, as (tids, tails,
    dtype of the Gram)."""
    calls = []
    gram = mining._gram

    def spy(ranked, tids, tails):
        result = gram(ranked, tids, tails)
        calls.append((tids, tails.copy(), result.dtype))
        return result

    monkeypatch.setattr(mining, "_gram", spy)
    return calls


class TestRankedCounting:
    # `frequent_antecedents` counts from one baskets x ranks copy, scattered
    # from the frequent items' tid lists, with a column per rank: the
    # empty prefix's Gram reads all of it, and a deeper prefix's Gram
    # gathers its tails' span of ranks, narrowed to the tails when the
    # span has gaps.
    def test_tail_spans_with_and_without_gaps(self, monkeypatch):
        calls = gram_calls(monkeypatch)
        db = skewed_db(random.Random(97), n_items=12, n_baskets=200)
        freq = mining.frequent_antecedents(db, 4, 4)
        gaps = [t[-1] - t[0] + 1 - len(t) for tids, t, _ in calls if tids is not None]
        assert any(g > 0 for g in gaps) and any(g == 0 for g in gaps)
        assert_levels_match_brute_force(db, freq, 4, 4)

    def test_excluded_item_ranked_inside_a_tail_span(self):
        # By count, P < A < X < B < C; P's baskets hold A, X and B. With X
        # excluded, P's tails are A and B, which X's rank would separate.
        p, a, x, b, c = ITEM_POOL[:5]
        baskets = (
            [frozenset({p, a, x, b})] * 12
            + [frozenset({a})] * 18
            + [frozenset({x})] * 28
            + [frozenset({b})] * 38
            + [frozenset({c})] * 60
        )
        db = BasketDatabase([(f"p{j}", basket) for j, basket in enumerate(baskets)])
        assert db.counts[[db.item_ids[it] for it in (p, a, x, b, c)]].tolist() == [
            12, 30, 40, 50, 60
        ]
        freq = mining.frequent_antecedents(db, 5, 3, exclude=x)
        assert_levels_match_brute_force(db, freq, 5, 3, db.item_ids[x])
        assert sorted(map(tuple, freq.levels[2][0].tolist())) == [
            tuple(sorted(db.item_ids[it] for it in (p, a, b)))
        ]
        assert_rules_match_oracle(db, x, MiningConstraints(0.05, 0.01, 3))
        # Every item of a skewed corpus excluded in turn.
        db = skewed_db(random.Random(98), n_items=10, n_baskets=150)
        for exclude in db.items:
            freq = mining.frequent_antecedents(db, 3, 3, exclude=exclude)
            assert_levels_match_brute_force(db, freq, 3, 3, db.item_ids[exclude])

    def test_chunked_grams_at_every_level(self, monkeypatch):
        # A budget of a few floats splits both the empty prefix's Gram and
        # the deeper prefixes' Grams into chunks, summed in int64.
        monkeypatch.setattr(mining, "_GRAM_BYTES", 64)
        calls = gram_calls(monkeypatch)
        db = skewed_db(random.Random(99), n_items=10, n_baskets=150)
        freq = mining.frequent_antecedents(db, 3, 4)
        assert {tids is None for tids, _, dtype in calls if dtype == np.int64} == {True, False}
        assert_levels_match_brute_force(db, freq, 3, 4)


class TestEmittedRules:
    def test_measures_equal_recounted_rule_measures(self):
        rng = random.Random(90)
        for _ in range(8):
            db = random_db(rng, max_baskets=150, max_items=10)
            constraints = MiningConstraints(
                rng.choice([0.01, 0.05, 0.1]), rng.choice([0.01, 0.2]), rng.randint(1, 4)
            )
            for table in (
                mine_all_rules(db, constraints),
                mine_rules(db, rng.choice(db.items), constraints),
            ):
                assert table.items == db.items
                rows = list(zip(table.consequent.tolist(), table.antecedent.tolist()))
                # Rows in (consequent id, antecedent ids padded with -1) order.
                keys = [(y, *row) for y, row in rows]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)
                for k, (y, row) in enumerate(rows):
                    x = tuple(i for i in row if i >= 0)
                    want = rule_measures(
                        len(db.cover(x + (y,))), len(db.cover(x)), len(db.cover((y,))), db.m
                    )
                    got = tuple(float(getattr(table, name)[k]) for name in RuleMeasures._fields)
                    assert got == tuple(want), (x, y)


def assert_rules_match_oracle(db, consequent, constraints):
    mined = mine_rules(db, consequent, constraints)
    oracle = brute_force_rules(
        [set(b) for _, b in db.baskets],
        consequent,
        constraints.min_left_support,
        constraints.min_confidence,
        constraints.max_antecedent,
    )
    assert {r.antecedent for r in mined} == set(oracle)
    for r in mined:
        support, left, conf, lift, chi = oracle[r.antecedent]
        assert math.isclose(r.support, support, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(r.left_support, left, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(r.confidence, conf, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(r.lift, lift, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(r.chi_squared, chi, rel_tol=1e-9, abs_tol=1e-9)


class TestMineRules:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(36)
        for _ in range(25):
            db = random_db(rng)
            consequent = rng.choice(db.items)
            constraints = MiningConstraints(
                min_left_support=rng.choice([0.001, 0.01, 0.05, 0.2]),
                min_confidence=rng.choice([0.01, 0.1, 0.4, 0.8]),
                max_antecedent=rng.randint(1, 3),
            )
            assert_rules_match_oracle(db, consequent, constraints)

    @pytest.mark.parametrize("max_antecedent", [4, 5])
    def test_deep_antecedents_match_brute_force(self, max_antecedent):
        # Level L counts from the Grams of (L-2)-item prefixes; these
        # depths reach prefixes of 2 and 3 items.
        rng = random.Random(60 + max_antecedent)
        sizes = set()
        for _ in range(6):
            db = random_db(rng, max_baskets=160, max_items=12, min_items=7, density=0.5)
            constraints = MiningConstraints(
                rng.choice([0.01, 0.05]), rng.choice([0.01, 0.3]), max_antecedent
            )
            consequent = rng.choice(db.items)
            assert_rules_match_oracle(db, consequent, constraints)
            rules = mine_rules(db, consequent, constraints)
            assert rules == sorted(rules, key=AssociationRule.sort_key)
            sizes.update(len(r.antecedent) for r in rules)
        assert max_antecedent in sizes

    def test_ubiquitous_items_give_unit_lift(self):
        a, c = Item(ItemKind.READ, "A00.."), Item(ItemKind.READ, "C00..")
        db = BasketDatabase([(f"p{j}", frozenset([a, c])) for j in range(10)])
        rules = mine_rules(db, c, MiningConstraints(0.5, 0.5, 1))
        (rule,) = rules
        assert rule.antecedent == frozenset([a])
        assert rule.confidence == 1.0
        assert rule.lift == 1.0
        assert rule.chi_squared == 0.0

    def test_no_perfect_rule_under_full_confidence(self):
        a, b, c = (Item(ItemKind.READ, f"{ch}00..") for ch in "ABC")
        db = BasketDatabase(
            [("p0", frozenset([a, c])), ("p1", frozenset([a])), ("p2", frozenset([b]))]
        )
        assert mine_rules(db, c, MiningConstraints(0.01, 1.0, 3)) == []

    def test_unknown_consequent(self, worked_store):
        from adrrefine.baskets import build_database

        db = build_database(worked_store, min_active_months=0)
        with pytest.raises(DomainError):
            mine_rules(db, Item(ItemKind.READ, "Zzz.."))

    def test_empty_database_is_an_error(self):
        with pytest.raises(DomainError):
            BasketDatabase([])

    def test_antecedents_never_contain_consequent_and_respect_bounds(self):
        rng = random.Random(37)
        for _ in range(10):
            db = random_db(rng)
            consequent = rng.choice(db.items)
            constraints = MiningConstraints(0.02, 0.05, rng.randint(1, 3))
            for r in mine_rules(db, consequent, constraints):
                assert consequent not in r.antecedent
                assert 1 <= len(r.antecedent) <= constraints.max_antecedent
                assert r.left_support >= constraints.min_left_support
                assert r.confidence >= constraints.min_confidence

    def test_worker_count_does_not_change_output(self):
        rng = random.Random(38)
        db = random_db(rng, max_baskets=200)
        consequent = db.items[0]
        constraints = MiningConstraints(0.01, 0.01, 3)
        one = mine_rules(db, consequent, constraints, workers=1)
        four = mine_rules(db, consequent, constraints, workers=4)
        assert one == four

    def test_antecedent_subsets_stay_frequent(self):
        # anti-monotonicity: every subset of an emitted antecedent clears the floor
        rng = random.Random(39)
        db = random_db(rng)
        consequent = db.items[-1]
        constraints = MiningConstraints(0.05, 0.01, 3)
        for r in mine_rules(db, consequent, constraints):
            for item in r.antecedent:
                smaller = r.antecedent - {item}
                if smaller:
                    assert db.count(smaller) / db.m >= constraints.min_left_support


class TestMineAllRules:
    def test_equals_per_consequent_mining(self):
        # The emitter unpacks RuleMeasures into AssociationRule by position.
        fields = tuple(f.name for f in dataclasses.fields(AssociationRule))
        assert RuleMeasures._fields == fields[2:]
        # A floor of one basket makes every item frequent, so size-3
        # antecedents put consequents inside 2-item prefixes. `==` compares
        # the measures bit for bit.
        for seed in (40, 43, 45, 50, 51):
            rng = random.Random(seed)
            db = random_db(rng, max_baskets=120, max_items=10)
            constraints = MiningConstraints(0.001, 0.05, 3)
            all_rules = mine_all_rules(db, constraints)
            assert any(len(r.antecedent) == 3 for r in all_rules)
            for consequent in db.items:
                per = mine_rules(db, consequent, constraints)
                subset = [r for r in all_rules if r.consequent == consequent]
                assert subset == per

    @pytest.mark.parametrize("max_antecedent", [4, 5])
    def test_deep_antecedents_match_brute_force(self, max_antecedent):
        rng = random.Random(70 + max_antecedent)
        for _ in range(4):
            db = random_db(rng, max_baskets=120, max_items=10, min_items=6, density=0.5)
            constraints = MiningConstraints(0.02, rng.choice([0.01, 0.3]), max_antecedent)
            all_rules = mine_all_rules(db, constraints)
            assert all_rules == sorted(all_rules, key=AssociationRule.sort_key)
            baskets = [set(b) for _, b in db.baskets]
            for consequent in db.items:
                oracle = brute_force_rules(
                    baskets, consequent, 0.02, constraints.min_confidence, max_antecedent
                )
                mined = {r.antecedent: r for r in all_rules if r.consequent == consequent}
                assert set(mined) == set(oracle)
                for antecedent, want in oracle.items():
                    r = mined[antecedent]
                    got = (r.support, r.left_support, r.confidence, r.lift, r.chi_squared)
                    assert all(
                        math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9) for g, w in zip(got, want)
                    )
            assert any(len(r.antecedent) == max_antecedent for r in all_rules)

    def test_no_frequent_antecedent_gives_no_rules(self):
        a, b = Item(ItemKind.READ, "A00.."), Item(ItemKind.READ, "B00..")
        db = BasketDatabase([("p0", frozenset([a])), ("p1", frozenset([b]))])
        constraints = MiningConstraints(0.9, 0.5, 2)
        assert mine_all_rules(db, constraints) == []
        assert mine_rules(db, b, constraints) == []

    def test_two_item_toy_db(self):
        a, b = Item(ItemKind.READ, "A00.."), Item(ItemKind.READ, "B00..")
        db = BasketDatabase(
            [
                ("p0", frozenset([a, b])),
                ("p1", frozenset([a, b])),
                ("p2", frozenset([a])),
                ("p3", frozenset([b])),
            ]
        )
        rules = mine_all_rules(db, MiningConstraints(0.5, 0.5, 2))
        got = {(r.antecedent, r.consequent): r for r in rules}
        assert set(got) == {(frozenset([a]), b), (frozenset([b]), a)}
        rule = got[(frozenset([a]), b)]
        assert rule.support == 0.5
        assert rule.confidence == pytest.approx(2 / 3, rel=1e-12)
        assert rule.lift == pytest.approx((2 * 4) / (3 * 3), rel=1e-12)


def test_library_starts_no_thread(monkeypatch, worked_example_dir, worked_store):
    # Mining's `workers` is checked and has no other effect: mining and refine
    # run on the caller's thread, with numpy's BLAS threads the only parallelism.
    from adrrefine.refine import refine
    from adrrefine.signals import load_signal_spec, read_instances_csv

    rng = random.Random(44)
    db = random_db(rng, max_baskets=150, max_items=10, min_items=8, density=0.4)
    constraints = MiningConstraints(0.02, 0.05, 3)
    rules = read_rules_csv(str(worked_example_dir / "rules.csv"))
    spec = load_signal_spec(str(worked_example_dir / "signal.json"))
    instances = read_instances_csv(str(worked_example_dir / "instances.csv"))

    def refuse(self):
        raise AssertionError(f"thread started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    all_rules = mine_all_rules(db, constraints, workers=4)
    # Several size-3 antecedent prefixes mean several prefix Grams.
    heads = {min(map(db.item_ids.get, r.antecedent)) for r in all_rules if len(r.antecedent) == 3}
    assert len(heads) > 1
    assert mine_rules(db, db.items[0], constraints, workers=4) == [
        r for r in all_rules if r.consequent == db.items[0]
    ]
    assert len(instances) >= 2
    report = refine(spec, rules, worked_store, instances=instances, exposures=25)
    assert report.instance_count == len(instances)


class TestRuleSerialization:
    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(41)
        db = random_db(rng, max_baskets=100, max_items=8)
        rules = mine_all_rules(db, MiningConstraints(0.05, 0.05, 2))
        path = tmp_path / "rules.csv"
        write_rules_csv(rules, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "antecedent,consequent,left_support,support,confidence,lift,chi_squared"
        loaded = read_rules_csv(str(path))
        assert {(r.antecedent, r.consequent) for r in loaded} == {
            (r.antecedent, r.consequent) for r in rules
        }
        by_key = {(r.antecedent, r.consequent): r for r in rules}
        for r in loaded:
            orig = by_key[(r.antecedent, r.consequent)]
            assert math.isclose(r.confidence, orig.confidence, rel_tol=1e-11)
            assert math.isclose(r.chi_squared, orig.chi_squared, rel_tol=1e-11)

    def test_json_round_trip(self, tmp_path):
        rng = random.Random(42)
        db = random_db(rng, max_baskets=100, max_items=8)
        rules = mine_all_rules(db, MiningConstraints(0.05, 0.05, 2))
        path = tmp_path / "rules.json"
        write_rules_json(rules, str(path))
        loaded = read_rules_json(str(path))
        assert loaded == sorted(rules, key=AssociationRule.sort_key)

    def test_rule_invariants_enforced(self):
        a, c = Item(ItemKind.READ, "A00.."), Item(ItemKind.READ, "C00..")
        with pytest.raises(DomainError):
            AssociationRule(frozenset(), c, 0.1, 0.2, 0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            AssociationRule(frozenset([c]), c, 0.1, 0.2, 0.5, 1.0, 0.0)

    def test_csv_rule_with_consequent_in_antecedent_reports_line(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text(
            "antecedent,consequent,left_support,support,confidence,lift,chi_squared\n"
            "B11..,A11..,0.2,0.1,0.5,1.5,2.0\n"
            "A11..|B11..,A11..,0.2,0.1,0.5,1.5,2.0\n"
        )
        with pytest.raises(ParseError, match=r"rules\.csv:3: .*also in antecedent") as info:
            read_rules_csv(str(path))
        assert (info.value.source, info.value.line) == (str(path), 3)

    def test_json_rule_with_empty_antecedent_is_parse_error(self, tmp_path):
        path = tmp_path / "rules.json"
        numbers = dict(left_support=0.2, support=0.1, confidence=0.5, lift=1.5, chi_squared=2.0)
        path.write_text(json.dumps([{"antecedent": [], "consequent": "A11..", **numbers}]))
        with pytest.raises(ParseError, match="antecedent must not be empty") as info:
            read_rules_json(str(path))
        assert info.value.source == str(path)

    @pytest.mark.parametrize("top", ["5", "null", "{}", '{"rules": []}', '"rules"', "true"])
    def test_json_top_level_other_than_list_is_parse_error(self, tmp_path, top):
        path = tmp_path / "rules.json"
        path.write_text(top)
        with pytest.raises(ParseError, match="top level must be a list") as info:
            read_rules_json(str(path))
        assert info.value.source == str(path)

    def test_json_empty_list_is_no_rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("[]")
        assert read_rules_json(str(path)) == []

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_rules_of_one_file_share_items(self, tmp_path, suffix):
        rng = random.Random(43)
        rules = mine_all_rules(random_db(rng, max_baskets=100, max_items=8), MiningConstraints(0.05, 0.05, 2))
        path = str(tmp_path / f"rules.{suffix}")
        (write_rules_csv if suffix == "csv" else write_rules_json)(rules, path)
        loaded = (read_rules_csv if suffix == "csv" else read_rules_json)(path)
        by_token = {}
        for r in loaded:
            for item in (*r.antecedent, r.consequent):
                assert by_token.setdefault(item.token, item) is item
        assert len(by_token) < sum(len(r.antecedent) + 1 for r in loaded)


def pinned_corpus_rules():
    """`mine_all_rules` over a seeded corpus of diagnosis, drug and gender
    items (1446 rules)."""
    rng = random.Random(6061)
    codes = [Item(ItemKind.READ, f"{c}{i}1..") for c in "HNC" for i in (1, 3)]
    codes += [Item(ItemKind.BNF, f"{c}.{s}.0.0") for c, s in ((2, 2), (5, 1), (3, 4), (10, 1))]
    presence = [0.55, 0.4, 0.3, 0.22, 0.15, 0.08, 0.5, 0.35, 0.2, 0.06]
    baskets = []
    for j in range(400):
        members = {gender_item(rng.choice("MF"))}
        members.update(it for it, p in zip(codes, presence) if rng.random() < p)
        baskets.append((f"p{j}", frozenset(members)))
    return mine_all_rules(BasketDatabase(baskets), MiningConstraints(0.02, 0.05, 3))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRuleFileBytes:
    # sha256 of the files the row-at-a-time writers wrote for this corpus.
    PINNED = {
        "csv": "b79d5b5f88a1962e60ccac2e6e4a26ffbcea7ce7d609833773f76289df4a26d8",
        "json": "94868c640680b7c24b2daa48478678957736477709cc8a78a98f6cb0125ce34c",
    }

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_pinned_bytes(self, tmp_path, suffix):
        mined = pinned_corpus_rules()
        assert len(mined) == 1446
        write = write_rules_csv if suffix == "csv" else write_rules_json
        path = tmp_path / f"rules.{suffix}"
        write(mined, str(path))
        assert sha256(path) == self.PINNED[suffix]
        # The same rules as a shuffled list of AssociationRules.
        rules = list(mined)
        random.Random(5).shuffle(rules)
        write(rules, str(tmp_path / f"list.{suffix}"))
        assert sha256(tmp_path / f"list.{suffix}") == self.PINNED[suffix]
