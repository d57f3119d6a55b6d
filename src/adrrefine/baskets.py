"""Per-patient item baskets and the mining corpus.

Each eligible patient contributes one deduplicated basket: their gender
item plus the normalized item of every retained event. The database
keeps two index structures: `tid_lists`, per item its sorted basket
ordinals, and `bits`, a baskets x items 0/1 byte matrix with a row per
basket. An itemset's baskets are the rarest item's ordinals narrowed
through the other items' columns, so counting costs one byte lookup per
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

from .codes import Item, gender_item
from .errors import DomainError
from .events import DEFAULT_MIN_ACTIVE_MONTHS, EventStore, eligible_patients


def pre_outcome_items(
    store: EventStore,
    patient_ids: Sequence[str],
    cutoffs: Sequence[dt.date],
    include_same_day: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(history k, mining item id) of each row of patient `patient_ids[k]`
    dated before `cutoffs[k]`, repeats kept and gender left out; ids index
    the store's `codes.mining_items`. An unknown patient is a DomainError.

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
    return history, columns.codes.item_id[columns.code[rows]]


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
    items = [store.columns.codes.mining_items[i] for i in set(ids.tolist())]
    return frozenset([gender_item(store.patients[patient_id].gender), *items])


@dataclass(frozen=True)
class BasketPairs:
    """Baskets as columns: each basket's patient id (in basket ordinal
    order), an item vocabulary in token order, and the distinct
    (basket ordinal, item id) pairs in ascending basket order."""

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
    `BasketPairs`. `tid_lists[i]` holds the sorted int64 ordinals of the
    baskets that contain item i; `bits` is the baskets x items membership
    matrix, one 0/1 byte per cell and a row per basket, so the rows of a
    set of baskets gather as contiguous runs. Both are read-only. Basket
    ordinals follow the input order (store patient order for
    `build_database`), so rebuilding from the same store yields identical
    ordinals. Items are indexed in token order for deterministic ids.
    """

    def __init__(self, baskets: Sequence[tuple[str, frozenset[Item]]] | BasketPairs):
        pairs = baskets if isinstance(baskets, BasketPairs) else _pairs_from_sets(baskets)
        if not pairs.pids:
            raise DomainError("basket database is empty; mining is undefined")
        self.pids: tuple[str, ...] = pairs.pids
        self.m: int = len(self.pids)
        # Keep only the vocabulary's items that some basket holds.
        counts = np.bincount(pairs.item, minlength=len(pairs.items))
        held = counts > 0
        self.items: tuple[Item, ...] = tuple(compress(pairs.items, held.tolist()))
        item = pairs.item if held.all() else (np.cumsum(held) - 1)[pairs.item]
        counts = counts[held]
        self.item_ids: dict[Item, int] = {it: i for i, it in enumerate(self.items)}

        # Stable by item, so each item's baskets stay in ascending order; a
        # 16-bit key sorts by radix.
        key = item.astype(np.uint16) if len(self.items) <= 1 << 16 else item
        tids = pairs.basket.astype(np.int64)[np.argsort(key, kind="stable")]
        tids.flags.writeable = False
        bits = np.zeros((self.m, len(self.items)), dtype=np.uint8)
        bits[pairs.basket, item] = 1
        bits.flags.writeable = False
        self.tid_lists: tuple[np.ndarray, ...] = tuple(np.split(tids, np.cumsum(counts)[:-1]))
        self.bits: np.ndarray = bits
        self.counts: np.ndarray = counts.astype(np.int64)

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
        keeps those whose byte is set in each other item's column."""
        if not ids:
            return np.arange(self.m, dtype=np.int64)
        ordered = sorted(ids, key=lambda i: self.counts[i])
        tids = self.tid_lists[ordered[0]]
        for i in ordered[1:]:
            tids = tids[self.bits[tids, i] != 0]
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
    distinct (patient, item) pairs of its rows, plus its gender item."""
    eligible = eligible_patients(store, min_active_months)
    keep = np.fromiter((pid in eligible for pid in store.patients), bool, len(store.patients))
    if not keep.any():
        raise DomainError(
            f"no patients active for {min_active_months}+ months; nothing to mine"
        )
    pids = tuple(compress(store.patients, keep))
    genders = [store.patients[pid].gender for pid in pids]
    gender_items = {g: gender_item(g) for g in set(genders)}
    columns = store.columns
    codes = columns.codes
    items = sorted({*codes.mining_items, *gender_items.values()}, key=lambda it: it.token)
    vocab = {it: k for k, it in enumerate(items)}
    code_vocab = np.array([vocab[it] for it in codes.mining_items], dtype=np.int64)

    basket_of = np.cumsum(keep) - 1  # basket ordinal of each kept patient
    rows = keep[columns.patient]
    basket = np.concatenate([basket_of[columns.patient[rows]], np.arange(len(pids))])
    item = np.concatenate([
        code_vocab[codes.item_id[columns.code[rows]]],
        [vocab[gender_items[g]] for g in genders],
    ])
    key = np.unique(basket * len(items) + item)  # distinct pairs, basket-major
    pairs = BasketPairs(pids, tuple(items), key // len(items), key % len(items))
    return BasketDatabase(pairs)
