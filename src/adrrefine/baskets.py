"""Per-patient item baskets and the mining corpus.

Each eligible patient contributes one deduplicated basket: their gender
item plus the normalized item of every retained event. The database
keeps one vertical index: per item, its sorted basket ordinals and a
0/1 byte row over all baskets. An itemset's baskets are the rarest
item's ordinals narrowed through the other items' rows, so counting
costs one byte lookup per candidate basket rather than a scan of all m.

Whole-history baskets feed mining; time-restricted pre-outcome baskets
feed signal refinement. The asymmetry is deliberate: rules describe
lifetime co-occurrence, refinement asks what was known before an outcome.
"""

from __future__ import annotations

import datetime as dt
from typing import Iterable, Sequence

import numpy as np

from .codes import Item, gender_item
from .errors import DomainError
from .events import DEFAULT_MIN_ACTIVE_MONTHS, EventStore, eligible_patients


def build_basket(store: EventStore, patient_id: str) -> frozenset[Item]:
    """Whole-history basket: gender plus every normalized retained event."""
    return pre_outcome_basket(store, patient_id, dt.date.max, include_same_day=True)


def pre_outcome_basket(
    store: EventStore,
    patient_id: str,
    cutoff_date: dt.date,
    include_same_day: bool = False,
) -> frozenset[Item]:
    """Basket of items recorded before `cutoff_date`.

    Events dated exactly on the cutoff are excluded by default: same-day
    entry order is not recorded, so a same-day item may be a consequence
    of the outcome rather than prior history. `include_same_day` keeps
    them instead.
    """
    patient = store.patients.get(patient_id)
    if patient is None:
        raise DomainError(f"unknown patient: {patient_id}")
    table = store.code_table
    items = {gender_item(patient.gender)}
    for ev in store.patient_events(patient_id):
        if ev.date > cutoff_date:
            break
        if ev.date == cutoff_date and not include_same_day:
            continue
        items.add(table[ev.code_type, ev.code][1])
    return frozenset(items)


class BasketDatabase:
    """An immutable basket corpus with a per-item vertical index.

    `tid_lists[i]` holds the sorted int64 ordinals of the baskets that
    contain item i; `bits` is the items x baskets membership matrix, one
    0/1 byte per cell. Both are read-only. Basket ordinals follow store
    patient order, so rebuilding from the same store yields identical
    ordinals. Items are indexed in token order for deterministic ids.
    """

    def __init__(self, baskets: Sequence[tuple[str, frozenset[Item]]]):
        if not baskets:
            raise DomainError("basket database is empty; mining is undefined")
        self.baskets: tuple[tuple[str, frozenset[Item]], ...] = tuple(baskets)
        self.m: int = len(self.baskets)
        universe = set()
        for _, basket in self.baskets:
            universe.update(basket)
        self.items: tuple[Item, ...] = tuple(sorted(universe, key=lambda it: it.token))
        self.item_ids: dict[Item, int] = {it: i for i, it in enumerate(self.items)}

        rows = [[] for _ in self.items]
        for ordinal, (_, basket) in enumerate(self.baskets):
            for item in basket:
                rows[self.item_ids[item]].append(ordinal)
        # Swap each Python list for its array in place, so every list is
        # freed before the byte matrix is allocated.
        for i, members in enumerate(rows):
            rows[i] = np.array(members, dtype=np.int64)
        bits = np.zeros((len(self.items), self.m), dtype=np.uint8)
        for i, tids in enumerate(rows):
            bits[i, tids] = 1
            tids.flags.writeable = False
        bits.flags.writeable = False
        self.tid_lists: tuple[np.ndarray, ...] = tuple(rows)
        self.bits: np.ndarray = bits
        self.counts: np.ndarray = np.array([len(t) for t in rows], dtype=np.int64)

    def __contains__(self, item: Item) -> bool:
        return item in self.item_ids

    def item_count(self, item: Item) -> int:
        """Number of baskets containing a single item (0 if unknown)."""
        idx = self.item_ids.get(item)
        return 0 if idx is None else int(self.counts[idx])

    def cover(self, ids: Sequence[int]) -> np.ndarray:
        """Sorted ordinals of the baskets holding every item id in `ids`;
        all baskets for no ids. Starts from the rarest item's ordinals and
        keeps those whose byte is set in each other item's row."""
        if not ids:
            return np.arange(self.m, dtype=np.int64)
        ordered = sorted(ids, key=lambda i: self.counts[i])
        tids = self.tid_lists[ordered[0]]
        for i in ordered[1:]:
            tids = tids[self.bits[i, tids] != 0]
        return tids

    def count(self, itemset: Iterable[Item]) -> int:
        """Number of baskets containing every item of `itemset`."""
        ids = []
        for item in itemset:
            idx = self.item_ids.get(item)
            if idx is None:
                return 0
            ids.append(idx)
        return len(self.cover(ids))

    def supp(self, itemset: Iterable[Item]) -> float:
        """Fraction of baskets containing `itemset` (1.0 for the empty set)."""
        return self.count(itemset) / self.m

    def ordinals(self, item: Item) -> np.ndarray:
        """Sorted basket ordinals containing `item` (read-only)."""
        idx = self.item_ids.get(item)
        if idx is None:
            return np.empty(0, dtype=np.int64)
        return self.tid_lists[idx]


def build_database(
    store: EventStore, min_active_months: int = DEFAULT_MIN_ACTIVE_MONTHS
) -> BasketDatabase:
    """One whole-history basket per eligible patient, in store order."""
    eligible = eligible_patients(store, min_active_months)
    baskets = [
        (pid, build_basket(store, pid)) for pid in store.patients if pid in eligible
    ]
    if not baskets:
        raise DomainError(
            f"no patients active for {min_active_months}+ months; nothing to mine"
        )
    return BasketDatabase(baskets)


def write_baskets(db: BasketDatabase, path: str) -> None:
    """Debug dump: one `patient_id,item1|item2|...` row per basket."""
    with open(path, "w") as fh:
        fh.write("patient_id,items\n")
        for pid, basket in db.baskets:
            tokens = "|".join(sorted(it.token for it in basket))
            fh.write(f"{pid},{tokens}\n")
