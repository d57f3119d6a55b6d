"""Per-patient item baskets and the mining corpus.

Each eligible patient contributes one deduplicated basket: their gender
item plus the normalized item of every retained event. The database
keeps one index: `tid_lists`, per item its sorted basket ordinals. An
itemset's baskets are the rarest item's ordinals narrowed through the
other items' lists by binary search, so counting costs a few lookups per
candidate basket rather than a scan of all m.

Whole-history baskets feed mining; time-restricted pre-outcome histories
feed signal refinement. The asymmetry is deliberate: rules describe
lifetime co-occurrence, refinement asks what was known before an outcome.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .codes import Item
from .errors import DomainError
from .events import DEFAULT_MIN_ACTIVE_MONTHS, EventStore, _frozen, eligible_patients


def pre_outcome_items(
    store: EventStore,
    patient_ids: Sequence[str],
    cutoffs: Sequence[dt.date],
    include_same_day: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(history k, mining item id) of each row of patient `patient_ids[k]`
    dated before `cutoffs[k]`, repeats kept, then one gender row per
    history holding that patient's gender item; ids index the store's
    `codes.mining_items`. An unknown patient is a DomainError.

    Events dated exactly on the cutoff are excluded by default: same-day
    entry order is not recorded, so a same-day item may be a consequence
    of the outcome rather than prior history. `include_same_day` keeps
    them instead.
    """
    columns = store.columns
    ordinal = np.array([columns.ordinal.get(pid, -1) for pid in patient_ids], dtype=np.int64)
    unknown = np.flatnonzero(ordinal < 0)
    if len(unknown):
        raise DomainError(f"unknown patient: {patient_ids[int(unknown[0])]}")
    days = np.array([d.toordinal() for d in cutoffs], dtype=np.int64)
    side = "right" if include_same_day else "left"
    start = columns.offsets[ordinal]
    sizes = np.searchsorted(columns.key, (ordinal << 32) | days, side) - start
    history = np.repeat(np.arange(len(ordinal)), sizes)
    # Row r of history k sits at start[k] + (r minus the history's first r).
    rows = np.arange(len(history)) + np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
    codes = columns.codes
    gender = codes.gender_id[columns.gender[ordinal]]
    return (
        np.concatenate([history, np.arange(len(ordinal))]),
        np.concatenate([codes.item_id[columns.code[rows]], gender]),
    )


def pre_outcome_basket(
    store: EventStore,
    patient_id: str,
    cutoff_date: dt.date,
    include_same_day: bool = False,
) -> frozenset[Item]:
    """One patient's basket of items recorded before `cutoff_date`, plus
    their gender item: `pre_outcome_items` for one history. A cutoff of
    `dt.date.max` with `include_same_day` gives the whole-history basket."""
    _, ids = pre_outcome_items(store, [patient_id], [cutoff_date], include_same_day)
    return frozenset(map(store.columns.codes.mining_items.__getitem__, set(ids.tolist())))


@dataclass(frozen=True)
class BasketPairs:
    """Baskets as columns: each basket's patient id (in basket ordinal
    order), an item vocabulary in token order, and (basket ordinal, item
    id) pairs, in any order, a pair possibly repeated."""

    pids: tuple[str, ...]
    items: tuple[Item, ...]
    basket: np.ndarray
    item: np.ndarray


def _pairs_from_sets(baskets: Iterable[tuple[str, frozenset[Item]]]) -> BasketPairs:
    baskets = tuple(baskets)
    sets = [basket for _, basket in baskets]
    universe = set().union(*sets)
    items = tuple(sorted(universe, key=lambda it: it.token))
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    total = int(sizes.sum())
    # Corpora usually share one Item object per item, so look members up
    # by identity first: hashing an Item runs Python code, an id does not.
    by_identity = {id(it): k for k, it in enumerate(items)}
    try:
        item = np.fromiter(
            map(by_identity.__getitem__, map(id, chain.from_iterable(sets))), np.int64, total
        )
    except KeyError:  # some member is an equal copy of a universe item
        ids = {it: k for k, it in enumerate(items)}
        item = np.fromiter(map(ids.__getitem__, chain.from_iterable(sets)), np.int64, total)
    basket = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)
    return BasketPairs(tuple(pid for pid, _ in baskets), items, basket, item)


class BasketDatabase:
    """An immutable basket corpus with a per-item vertical index.

    Built from (patient id, frozenset of items) pairs or from
    `BasketPairs`, whose pairs may repeat and come in any order.
    `tid_lists[i]` holds the sorted int64 ordinals of the baskets that
    contain item i, read-only, and `counts[i]` their number; they are the
    only index, from one sort of the item-major keys `item * m + basket`
    with repeats dropped. Mining scatters the frequent items' lists into
    its own baskets x ranks copy once per call
    (`mining.frequent_antecedents`). Basket ordinals follow the input
    order (store patient order for `build_database`), so rebuilding from
    the same store yields identical ordinals. Items are indexed in token
    order for deterministic ids.
    """

    def __init__(self, baskets: Sequence[tuple[str, frozenset[Item]]] | BasketPairs):
        pairs = baskets if isinstance(baskets, BasketPairs) else _pairs_from_sets(baskets)
        if not pairs.pids:
            raise DomainError("basket database is empty; mining is undefined")
        self.pids: tuple[str, ...] = pairs.pids
        self.m: int = len(self.pids)
        key = pairs.item.astype(np.int64) * self.m + pairs.basket
        key.sort()
        distinct = np.ones(len(key), dtype=bool)
        distinct[1:] = key[1:] != key[:-1]
        key = key[distinct]
        # Item i's keys are those in [i * m, (i + 1) * m).
        ends = np.searchsorted(key, np.arange(1, len(pairs.items) + 1) * self.m)
        counts = np.diff(ends, prepend=0)
        tids = _frozen(key - np.repeat(np.arange(len(pairs.items)) * self.m, counts))
        # Keep only the vocabulary's items that some basket holds.
        held = counts > 0
        self.items: tuple[Item, ...] = tuple(compress(pairs.items, held.tolist()))
        self.item_ids: dict[Item, int] = {it: i for i, it in enumerate(self.items)}
        self.counts: np.ndarray = counts[held]
        self.tid_lists: tuple[np.ndarray, ...] = tuple(np.split(tids, ends[held])[:-1])

    @cached_property
    def baskets(self) -> tuple[tuple[str, frozenset[Item]], ...]:
        """Each basket as (patient id, frozenset of items), in ordinal order."""
        members: list[list[Item]] = [[] for _ in range(self.m)]
        for item, tids in zip(self.items, self.tid_lists):
            for ordinal in tids.tolist():
                members[ordinal].append(item)
        return tuple(zip(self.pids, map(frozenset, members)))

    def __contains__(self, item: Item) -> bool:
        return item in self.item_ids

    def item_count(self, item: Item) -> int:
        """Number of baskets containing a single item (0 if unknown)."""
        idx = self.item_ids.get(item)
        return 0 if idx is None else int(self.counts[idx])

    def cover(self, ids: Sequence[int]) -> np.ndarray:
        """Sorted ordinals of the baskets holding every item id in `ids`;
        all baskets for no ids. Starts from the rarest item's ordinals and
        keeps those found, by binary search, in each other item's list."""
        if not ids:
            return np.arange(self.m, dtype=np.int64)
        ordered = sorted(ids, key=lambda i: self.counts[i])
        tids = self.tid_lists[ordered[0]]
        for other in map(self.tid_lists.__getitem__, ordered[1:]):
            tids = tids[other.take(np.searchsorted(other, tids), mode="clip") == tids]
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


def build_database(
    store: EventStore, min_active_months: int = DEFAULT_MIN_ACTIVE_MONTHS
) -> BasketDatabase:
    """One whole-history basket per eligible patient, in store order: the
    items of its rows, plus its gender item."""
    eligible = eligible_patients(store, min_active_months)
    columns = store.columns
    keep = np.fromiter(map(eligible.__contains__, columns.pids), bool, len(columns.pids))
    if not keep.any():
        raise DomainError(
            f"no patients active for {min_active_months}+ months; nothing to mine"
        )
    pids = tuple(compress(columns.pids, keep.tolist()))
    codes = columns.codes
    basket_of = np.cumsum(keep) - 1  # basket ordinal of each kept patient
    rows = keep[columns.patient]
    basket = np.concatenate([basket_of[columns.patient[rows]], np.arange(len(pids))])
    item = np.concatenate([
        codes.item_id[columns.code[rows]], codes.gender_id[columns.gender[keep]]
    ])
    return BasketDatabase(BasketPairs(pids, codes.mining_items, basket, item))
