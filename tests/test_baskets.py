import datetime as dt
import random

import numpy as np
import pytest

from adrrefine.baskets import BasketDatabase, BasketPairs, build_database, pre_outcome_basket
from adrrefine.codes import Item, ItemKind
from adrrefine.errors import DomainError
from adrrefine.events import load

from conftest import write_cohort

GENDER_M = Item(ItemKind.GENDER, "M")
GENDER_F = Item(ItemKind.GENDER, "F")
DOI1 = Item(ItemKind.BNF, "1.1.0.0")
DOI2 = Item(ItemKind.BNF, "2.2.0.0")
HOI3 = Item(ItemKind.READ, "H03..")
HOI5 = Item(ItemKind.READ, "H05..")


def build_basket(store, patient_id):
    """The whole-history basket: every retained row, same day included."""
    return pre_outcome_basket(store, patient_id, dt.date.max, include_same_day=True)


class TestBuildBasket:
    def test_worked_example_patient_two(self, worked_store):
        assert build_basket(worked_store, "2") == {GENDER_M, DOI1, DOI2, HOI3, HOI5}

    def test_patient_without_events(self, tmp_path):
        patients, events = write_cohort(tmp_path, ["p1,F,1950,2000-01-01"], [])
        store = load(patients, events)
        assert build_basket(store, "p1") == {GENDER_F}

    def test_repeats_collapse(self, tmp_path):
        rows = [f"p1,20{y:02d}-01-01,READ,A11zz" for y in range(1, 11)] * 10
        patients, events = write_cohort(tmp_path, ["p1,M,1950,2000-01-01"], rows)
        store = load(patients, events)
        assert build_basket(store, "p1") == {GENDER_M, Item(ItemKind.READ, "A11..")}

    def test_unknown_patient(self, worked_store):
        with pytest.raises(DomainError):
            build_basket(worked_store, "nope")


class TestBuildDatabase:
    def test_threshold_zero_keeps_everyone(self, worked_store):
        db = build_database(worked_store, min_active_months=0)
        assert db.m == 4
        assert [pid for pid, _ in db.baskets] == ["1", "2", "3", "4"]

    def test_default_threshold_filters_short_histories(self, worked_store):
        db = build_database(worked_store)
        assert [pid for pid, _ in db.baskets] == ["1", "2"]

    def test_no_eligible_patients_is_an_error(self, tmp_path):
        patients, events = write_cohort(tmp_path, ["p1,M,1950,2000-01-01"], [])
        store = load(patients, events)
        with pytest.raises(DomainError):
            build_database(store)

    def test_rebuild_is_deterministic(self, worked_store):
        a = build_database(worked_store, min_active_months=0)
        b = build_database(worked_store, min_active_months=0)
        assert a.baskets == b.baskets
        assert a.items == b.items
        assert len(a.tid_lists) == len(b.tid_lists)
        assert all(map(np.array_equal, a.tid_lists, b.tid_lists))
        assert np.array_equal(a.counts, b.counts)


class TestPreOutcomeBasket:
    def test_patient_two_before_outcome(self, worked_store):
        basket = pre_outcome_basket(worked_store, "2", dt.date(2001, 8, 14))
        assert basket == {GENDER_M, HOI3, DOI2, DOI1}

    def test_patient_four_before_outcome(self, worked_store):
        basket = pre_outcome_basket(worked_store, "4", dt.date(2011, 1, 5))
        assert basket == {GENDER_M, DOI1}

    def test_cutoff_before_all_events(self, worked_store):
        basket = pre_outcome_basket(worked_store, "1", dt.date(2003, 1, 1))
        assert basket == {GENDER_F}

    def test_same_day_excluded_by_default(self, worked_store):
        # Patient 3 has diagnosis records dated on the outcome day itself.
        strict = pre_outcome_basket(worked_store, "3", dt.date(2010, 3, 22))
        assert HOI5 not in strict
        loose = pre_outcome_basket(worked_store, "3", dt.date(2010, 3, 22), include_same_day=True)
        assert HOI5 in loose
        assert strict <= loose

    def test_monotone_in_cutoff_and_bounded_by_full_basket(self, worked_store):
        for pid in ("1", "2", "3", "4"):
            full = build_basket(worked_store, pid)
            previous = frozenset()
            for offset in range(0, 4000, 97):
                cutoff = dt.date(1999, 1, 1) + dt.timedelta(days=offset)
                basket = pre_outcome_basket(worked_store, pid, cutoff)
                assert previous <= basket <= full
                previous = basket


class TestIndex:
    def test_index_counts_match_supports(self, worked_store):
        db = build_database(worked_store, min_active_months=0)
        for item in db.items:
            ordinals = db.tid_lists[db.item_ids[item]]
            assert len(ordinals) == db.count([item]) == db.item_count(item)
            for o in ordinals:
                assert item in db.baskets[o][1]

    def test_empty_itemset_support_is_one(self, worked_store):
        db = build_database(worked_store, min_active_months=0)
        assert db.count([]) == db.m

    def test_pair_counts_match_scan(self):
        # Itemsets of size 0-3 over items whose densities sit on both sides
        # of m/8, plus items that appear in no basket.
        rng = random.Random(7)
        densities = [0.02, 0.05, 0.08, 0.11, 0.14, 0.2, 0.3, 0.45, 0.6, 0.8, 0.95]
        items = [Item(ItemKind.READ, f"A{i:02d}..") for i in range(len(densities))]
        baskets = []
        for j in range(400):
            members = frozenset(it for it, d in zip(items, densities) if rng.random() < d)
            baskets.append((f"p{j}", members | {GENDER_M}))
        db = BasketDatabase(baskets)
        unknown = [Item(ItemKind.READ, "Zzz.."), Item(ItemKind.BNF, "9.9.0.0")]
        pool = items + [GENDER_M] + unknown
        for _ in range(400):
            itemset = rng.sample(pool, rng.randint(0, 3))
            want = [o for o, (_, b) in enumerate(baskets) if set(itemset) <= b]
            assert db.count(itemset) == len(want)
            if all(it in db for it in itemset):
                assert db.cover([db.item_ids[it] for it in itemset]).tolist() == want

    def test_pairs_in_any_order_with_repeats(self):
        """Pairs shuffled and repeated, over a vocabulary holding items no
        basket holds, give the index of the baskets as sets."""
        rng = random.Random(11)
        items = [Item(ItemKind.READ, f"A{i:02d}..") for i in range(12)]
        sets = [frozenset(rng.sample(items[2:], rng.randint(0, 6))) for _ in range(60)]
        pairs = [(b, items.index(it)) for b, members in enumerate(sets) for it in members]
        pairs = rng.sample(pairs * 3, 3 * len(pairs))
        basket, item = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        pids = tuple(f"p{j}" for j in range(len(sets)))
        got = BasketDatabase(BasketPairs(pids, tuple(items), basket, item))
        want = BasketDatabase(list(zip(pids, sets)))
        assert got.items == want.items and got.baskets == want.baskets
        assert np.array_equal(got.counts, want.counts)
        assert len(got.tid_lists) == len(want.tid_lists) == len(want.items)
        assert all(map(np.array_equal, got.tid_lists, want.tid_lists))

    def test_baskets_without_items(self):
        db = BasketDatabase([("p", frozenset()), ("q", frozenset())])
        assert (db.items, db.tid_lists, len(db.counts)) == ((), (), 0)
        assert db.count([]) == 2 and db.baskets == (("p", frozenset()), ("q", frozenset()))

    def test_index_is_read_only(self, worked_store):
        db = build_database(worked_store, min_active_months=0)
        with pytest.raises(ValueError):
            db.tid_lists[db.item_ids[GENDER_M]][0] = 3

    def test_unknown_item_count_is_zero(self, worked_store):
        db = build_database(worked_store, min_active_months=0)
        assert db.count([Item(ItemKind.READ, "Zzz..")]) == 0
