"""Association rule mining under left-support and confidence constraints.

Rules have an itemset antecedent and a single-item consequent. The
left-support constraint (on the antecedent alone) replaces the usual
rule-support constraint so that rules predicting rare consequents are
still discoverable. Confidence is not anti-monotone, so it filters at
emission only.

Counting works on conditional basket sets, the vertical-database idea
of Eclat and FP-growth. For a frequent itemset Q, the 0/1 rows of Q's
frequent one-item extensions over the baskets holding Q, multiplied by
their own transpose, give count(Q | {r, s}) for every pair of them at
once. One such Gram matrix per prefix finds the frequent itemsets two
items larger than the prefix. A rule's joint count count(X | {y}) is a
popcount instead: the baskets holding the consequent y are packed as
one bitset row per item, and the AND of X's rows marks the baskets that
also hold X (the vertical bitmaps of MAFIA, Burdick et al., ICDE 2001),
so a few vectorised passes count every antecedent at once. Support is
anti-monotone under supersets, so an itemset below the left-support
floor is never a prefix or a row, and because every count is exact no
candidate needs a subset prune. Items are counted in ascending support
order (Zaki, "Scalable algorithms for association mining", IEEE TKDE
2000): a prefix is its itemset's rarest items, so each Gram covers few
baskets, and the common items, which have the most frequent supersets,
are Gram rows rather than prefixes.

All measures are derived from exact integer basket counts, as columns
filled a block of rules at a time that equal the one-rule formula bit
for bit.
Mining runs on the caller's thread, so reports are bit-reproducible
across runs.

Mined rules stay columns: a `RuleTable` holds item-id columns for the
antecedents and consequents over one shared item vocabulary, plus the
five measure columns. The miner fills it from its count columns, the
rules-file writers format it a column at a time, the readers build it
a block of rows at a time, and refinement matches baskets against it with
array masks. It is a read-only sequence of `AssociationRule`s, each
built only when it is accessed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .baskets import BasketDatabase
from .codes import Item, parse_item
from .errors import (
    INPUT_FAULTS, ConfigError, DomainError, ParseError, check_workers, column_values, csv_columns,
    json_list, json_number, raise_first_fault, read_json,
)

DEFAULT_MIN_LEFT_SUPPORT = 0.001
DEFAULT_MIN_CONFIDENCE = 0.01
DEFAULT_MAX_ANTECEDENT = 3

# The measure columns in rules-file order.
_MEASURES = ["left_support", "support", "confidence", "lift", "chi_squared"]
# Rows turned into Python objects at a time, when iterating a `RuleTable`,
# so one block's objects die before the next block.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class MiningConstraints:
    min_left_support: float = DEFAULT_MIN_LEFT_SUPPORT
    min_confidence: float = DEFAULT_MIN_CONFIDENCE
    max_antecedent: int = DEFAULT_MAX_ANTECEDENT

    def __post_init__(self):
        if not 0 < self.min_left_support <= 1:
            raise ConfigError(f"min_left_support must be in (0, 1]: {self.min_left_support}")
        if not 0 < self.min_confidence <= 1:
            raise ConfigError(f"min_confidence must be in (0, 1]: {self.min_confidence}")
        if self.max_antecedent < 1:
            raise ConfigError(f"max_antecedent must be >= 1: {self.max_antecedent}")


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 observed/expected cell proportions for a rule, plus the basket
    count needed to put the statistic back on the count scale."""

    observed: tuple[float, float, float, float]
    expected: tuple[float, float, float, float]
    m: int

    @property
    def degenerate(self) -> bool:
        """True when a marginal support is 0 or 1, so association is undefined."""
        return any(e == 0.0 for e in self.expected)


@dataclass(frozen=True, slots=True)
class AssociationRule:
    antecedent: frozenset[Item]
    consequent: Item
    support: float
    left_support: float
    confidence: float
    lift: float
    chi_squared: float

    def __post_init__(self):
        if not self.antecedent:
            raise DomainError("rule antecedent must not be empty")
        if self.consequent in self.antecedent:
            raise DomainError(f"consequent {self.consequent} also in antecedent")

    @property
    def antecedent_tokens(self) -> tuple[str, ...]:
        return tuple(sorted(it.token for it in self.antecedent))

    def sort_key(self) -> tuple:
        return (self.consequent.token, self.antecedent_tokens)


class RuleTable(Sequence):
    """Rules as columns over one item vocabulary.

    `items` is the vocabulary in token order. `antecedent` is an
    (n, width) int32 matrix of item ids, each row ascending and padded
    with -1 at the end; `consequent` is an int32 id column; the five
    measures are float64 columns named as on `AssociationRule`.

    The table is a read-only sequence of `AssociationRule`s and compares
    `==` to a list of them. An int index builds one rule; any other
    numpy index (a slice, a mask, row numbers) gives a table of those
    rows. Rules are built on access and not kept: one iteration shares
    the table's `Item`s and one frozenset per distinct antecedent row.
    """

    __slots__ = ("items", "antecedent", "consequent", *_MEASURES)
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        items: Sequence[Item],
        antecedent: np.ndarray,
        consequent: np.ndarray,
        left_support: np.ndarray,
        support: np.ndarray,
        confidence: np.ndarray,
        lift: np.ndarray,
        chi_squared: np.ndarray,
    ):
        self.items: tuple[Item, ...] = tuple(items)
        self.antecedent = antecedent
        self.consequent = consequent
        self.left_support = left_support
        self.support = support
        self.confidence = confidence
        self.lift = lift
        self.chi_squared = chi_squared
        # The two rule invariants, on whole columns (the antecedent a column
        # at a time: `any` along its short rows is several times slower);
        # the first bad row raises the message `AssociationRule` would.
        inside = antecedent[:, 0] == consequent
        for column in antecedent.T[1:]:
            inside |= column == consequent
        bad = np.flatnonzero((antecedent[:, 0] < 0) | inside)
        if len(bad):
            self[int(bad[0])]

    @classmethod
    def from_rules(cls, rules: Iterable[AssociationRule]) -> RuleTable:
        """`rules` itself when it is a table, else a table of its rules in
        their order."""
        if isinstance(rules, RuleTable):
            return rules
        rules = list(rules)
        items = sorted(
            {it for r in rules for it in (*r.antecedent, r.consequent)}, key=lambda it: it.token
        )
        ids = {it: k for k, it in enumerate(items)}
        return cls(
            items,
            _id_matrix([sorted(ids[it] for it in r.antecedent) for r in rules]),
            np.array([ids[r.consequent] for r in rules], dtype=np.int32),
            *(np.array([getattr(r, name) for r in rules], dtype=np.float64) for name in _MEASURES),
        )

    def __len__(self) -> int:
        return len(self.consequent)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            k = range(len(self))[key]
            items = self.items
            return AssociationRule(
                frozenset(items[i] for i in self.antecedent[k].tolist() if i >= 0),
                items[int(self.consequent[k])],
                *(float(getattr(self, name)[k]) for name in _RULE_MEASURES),
            )
        return RuleTable(
            self.items,
            self.antecedent[key],
            self.consequent[key],
            *(getattr(self, name)[key] for name in _MEASURES),
        )

    def __iter__(self) -> Iterator[AssociationRule]:
        items = self.items
        rows, inverse = _distinct_rows(self.antecedent)
        sets: list[frozenset[Item] | None] = [None] * len(rows)
        for lo in range(0, len(self), _ROW_BLOCK):
            block = slice(lo, lo + _ROW_BLOCK)
            columns = (getattr(self, name)[block].tolist() for name in _RULE_MEASURES)
            for k, y, *measures in zip(
                inverse[block].tolist(), self.consequent[block].tolist(), *columns
            ):
                antecedent = sets[k]
                if antecedent is None:
                    antecedent = sets[k] = frozenset(
                        items[i] for i in rows[k].tolist() if i >= 0
                    )
                yield AssociationRule(antecedent, items[y], *measures)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RuleTable, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<RuleTable: {len(self)} rules over {len(self.items)} items>"


def _id_matrix(rows: list[list[int]]) -> np.ndarray:
    """Item-id rows as an int32 matrix padded with -1, at least one wide."""
    width = max([1, *map(len, rows)])
    matrix = np.array([row + [-1] * (width - len(row)) for row in rows], dtype=np.int32)
    return matrix.reshape(len(rows), width)


def _row_order(rows: np.ndarray, *major: np.ndarray) -> np.ndarray:
    """The stable order that sorts an id matrix's rows lexicographically,
    the -1 pad before every id, within the `major` keys when given (the
    last most major).

    The keys, most major first, each shifted by one so the pad is 0, are
    folded in base `max id + 2` into as few int64 keys as stay below
    2**63, which keeps their order, ties included; usually that is one
    key. When each row's index fits below that key as a last digit, the
    keys become distinct, so one plain `np.sort`, several times faster
    than a stable sort, gives the stable order, and each sorted key's
    last digit is its row's index. Otherwise one `np.lexsort` of the
    folded keys does.
    """
    n = len(rows)
    keys = [*major[::-1], *rows.T]
    base = int(max((k.max() for k in keys if len(k)), default=0)) + 2
    folded = [np.zeros(n, np.int64)]
    room = 1  # folded[-1] is below this
    for k in keys:
        if room * base > 2**63:
            folded.append(np.zeros(n, np.int64))
            room = 1
        folded[-1] *= base
        folded[-1] += k
        folded[-1] += 1
        room *= base
    if len(folded) == 1 and room * n <= 2**63:
        key = folded[0]
        key *= n
        key += np.arange(n)
        key.sort()
        key %= max(n, 1)
        return key
    return np.lexsort(folded[::-1])


def _distinct_rows(antecedent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an id matrix, sorted, and each row's index
    among them (a lexsort: `np.unique(axis=0)` sorts rows as opaque bytes
    and takes several times as long)."""
    order = _row_order(antecedent)
    rows = np.take(antecedent, order, axis=0)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def chi_squared(table: ContingencyTable) -> float:
    """Count-scaled chi-squared: m * sum((O-E)^2 / E) over the four cells.

    The cells are proportions, so the plain sum would be the count-based
    statistic divided by m; multiplying by m restores the standard scale.
    Degenerate marginals yield 0.0 (check `table.degenerate`).
    """
    if table.degenerate:
        return 0.0
    return float(_chi_sum(table.observed, table.expected, table.m))


class RuleMeasures(NamedTuple):
    """The five measures of a rule, in `AssociationRule`'s field order."""

    support: float
    left_support: float
    confidence: float
    lift: float
    chi_squared: float


# The measure columns in `AssociationRule`'s field order.
_RULE_MEASURES = RuleMeasures._fields


def _cells(count_xy, count_x, count_y, m):
    """Observed and expected cell proportions, as two 4-tuples, from
    counts given as Python ints or as integer columns.

    Every cell is one correctly-rounded division of exact integer
    products, so algebraically equal cells (observed == expected under
    independence) come out as identical floats and the chi-squared is
    exactly zero exactly when the lift is one.
    """
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
    return observed, expected


def _chi_sum(observed, expected, m):
    """m * sum((O-E)^2 / E), squaring through `np.float_power`, the C
    `pow` of Python's `**` (`d * d` can differ in the last bit), and
    adding the four terms in cell order."""
    t0, t1, t2, t3 = (np.float_power(o - e, 2) / e for o, e in zip(observed, expected))
    return m * (((t0 + t1) + t2) + t3)


def contingency_from_counts(
    count_xy: int, count_x: int, count_y: int, m: int
) -> ContingencyTable:
    """Contingency cells from integer counts (see `_cells`)."""
    m = int(m)
    observed, expected = _cells(int(count_xy), int(count_x), int(count_y), m)
    return ContingencyTable(observed=observed, expected=expected, m=m)


# Rules whose measures `_measure_columns` computes at a time. The
# formulas make about twenty float64 temporaries a row, so a block keeps
# them near 5 MB however many rules there are.
_MEASURE_BLOCK = 1 << 15


def _measure_columns(
    count_xy: np.ndarray, count_x: np.ndarray, count_y: np.ndarray, m: int
) -> RuleMeasures:
    """The five measures of many rules at once, as float64 columns,
    filled a block of `_MEASURE_BLOCK` rows at a time.

    Each entry equals the scalar formula on Python ints bit for bit:
    every measure and contingency cell (`_cells`) is one correctly
    rounded division of exact integer products. numpy divides int64
    operands in float64, which is exact while every product (at most
    m*m) stays below 2**53; above that the counts become Python ints in
    object columns.
    """
    columns = RuleMeasures(*(np.empty(len(count_xy)) for _ in _RULE_MEASURES))
    for lo in range(0, len(count_xy), _MEASURE_BLOCK):
        rows = slice(lo, lo + _MEASURE_BLOCK)
        block = _measure_block(count_xy[rows], count_x[rows], count_y[rows], m)
        for column, values in zip(columns, block):
            column[rows] = values
    return columns


def _measure_block(
    count_xy: np.ndarray, count_x: np.ndarray, count_y: np.ndarray, m: int
) -> RuleMeasures:
    """`_measure_columns` of one block of rows."""
    if m * m >= 2**53:
        count_xy, count_x, count_y = (
            np.asarray(c).astype(object) for c in (count_xy, count_x, count_y)
        )

    def div(a, b) -> np.ndarray:
        return np.asarray(a / b, dtype=np.float64)

    observed, expected = (
        tuple(np.asarray(c, dtype=np.float64) for c in cells)
        for cells in _cells(count_xy, count_x, count_y, m)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = _chi_sum(observed, expected, m)
    degenerate = np.logical_or.reduce([e == 0.0 for e in expected])
    return RuleMeasures(
        support=observed[0],
        left_support=div(count_x, m),
        confidence=div(count_xy, count_x),
        lift=div(count_xy * m, count_x * count_y),
        chi_squared=np.where(degenerate, 0.0, chi),
    )


def rule_measures(count_xy: int, count_x: int, count_y: int, m: int) -> RuleMeasures:
    """All five rule measures from exact basket counts (one row of
    `_measure_columns`)."""
    if m <= 0:
        raise DomainError("basket count must be positive")
    if count_x <= 0 or count_y <= 0:
        raise DomainError("confidence and lift are undefined for empty marginals")
    if not 0 <= count_xy <= min(count_x, count_y) or count_x + count_y - count_xy > m:
        raise DomainError(
            f"inconsistent counts: xy={count_xy}, x={count_x}, y={count_y}, m={m}"
        )
    columns = _measure_columns(
        *(np.array([int(c)], dtype=np.int64) for c in (count_xy, count_x, count_y)), int(m)
    )
    return RuleMeasures(*(float(c[0]) for c in columns))


def min_count_for(threshold: float, m: int) -> int:
    """Smallest basket count c with c/m >= threshold."""
    c = max(1, math.ceil(threshold * m))
    while c > 1 and (c - 1) / m >= threshold:
        c -= 1
    while c / m < threshold:
        c += 1
    return c


# Bytes of one baskets x rows float32 input block of `_gram`, and of the
# chunk's basket rows gathered from `bits` to make it or to pack
# `_target_bitsets`. It bounds only those blocks: the Gram itself is
# rows x rows, so it grows with the square of the row count.
_GRAM_BYTES = 1 << 25


def _gram(db: BasketDatabase, prefix: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """Co-occurrence counts of the items `rows` inside the baskets holding
    every item of `prefix`, as a rows x rows matrix of exact integers:
    float32 when the cover is one chunk, else int64.

    Off-diagonal cell (r, s) is count(prefix | {rows[r], rows[s]});
    diagonal cell r is count(prefix | {rows[r]}). The cover's basket rows
    are gathered from `bits` a chunk at a time, narrowed to the `rows`
    columns, and the 0/1 block times its own transpose is the chunk's
    Gram. Chunks keep each block within `_GRAM_BYTES`; with more than
    one, their products are summed in int64. Every product is exact at
    any m: a chunk's partial sums are integers of at most its basket
    count, which `_GRAM_BYTES` keeps at or below 2**23, and float32 holds
    every integer up to 2**24 exactly.
    """
    tids = db.cover(prefix)
    step = max(1, _GRAM_BYTES // max(4 * len(rows), db.bits.shape[1]))
    if len(tids) <= step:
        block = db.bits[tids][:, rows].astype(np.float32)
        return block.T @ block
    gram = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for lo in range(0, len(tids), step):
        block = db.bits[tids[lo : lo + step]][:, rows].astype(np.float32)
        gram += (block.T @ block).astype(np.int64)
    return gram


# Bytes of the bitset words `_joint_counts` gathers at a time. Of the
# sizes tried, from 64 KB to 16 MB, 1 MB was the fastest.
_COUNT_BYTES = 1 << 20


def _target_bitsets(db: BasketDatabase, y: int) -> np.ndarray:
    """The baskets holding item `y` as item-major packed bitsets: a
    (items + 1, words) uint64 matrix whose row i has bit j set when the
    j-th basket of `db.tid_lists[y]` holds item i. The last row is all
    ones, so the -1 pad of an id row selects it. The baskets' rows are
    gathered from `bits` a chunk at a time, each chunk within
    `_GRAM_BYTES`, and packed eight baskets to a byte, so the bitsets take
    about an eighth of the bytes of y's rows of `bits`."""
    tids = db.tid_lists[y]
    n_items = db.bits.shape[1]
    packed = np.zeros((n_items + 1, 8 * -(-len(tids) // 64)), np.uint8)
    packed[-1] = 0xFF
    step = max(8, _GRAM_BYTES // n_items // 8 * 8)
    for lo in range(0, len(tids), step):
        chunk = np.packbits(db.bits[tids[lo : lo + step]], axis=0, bitorder="little")
        packed[:-1, lo // 8 : lo // 8 + len(chunk)] = chunk.T
    return packed.view(np.uint64)


def _joint_counts(bitsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """count(X | {y}) of each id row X of `rows`, as int64, given y's
    `_target_bitsets`: the popcount of the AND of X's items' bitset rows.
    Rows are counted a block at a time, each block's gathered words
    within `_COUNT_BYTES`."""
    step = max(1, _COUNT_BYTES // (bitsets.itemsize * bitsets.shape[1] * rows.shape[1]))
    # A row's word popcounts are summed by a float64 product with ones,
    # exact below 2**53 baskets and several times faster than `sum(axis=1)`.
    ones = np.ones(bitsets.shape[1])
    counts = np.empty(len(rows), np.int64)
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        # `np.take` gathers short rows several times faster than indexing.
        joint = np.take(bitsets, block[:, 0], axis=0)
        for column in block.T[1:]:
            joint &= np.take(bitsets, column, axis=0)
        counts[lo : lo + step] = np.bitwise_count(joint) @ ones
    return counts


def _group_starts(heads: np.ndarray) -> list[int]:
    """Row numbers where a run of equal rows of `heads` begins, plus its
    row count at the end. `heads` has at least one row; with no columns,
    its rows are one run."""
    changed = (heads[1:] != heads[:-1]).any(axis=1)
    return [0, *(np.flatnonzero(changed) + 1).tolist(), len(heads)]


class FrequentItemsets:
    """Frequent itemsets level by level. `levels[k - 1]` is the pair
    (ids, counts) of the k-item sets: an (n, k) int32 matrix of item ids,
    each row ascending and the rows in lexicographic order, and their
    int64 basket counts. Only non-empty levels are kept. Iterating gives
    each itemset's ids, a row of its level's matrix, level by level (rows
    rather than `tolist()` lists: a third of a million short-lived lists
    keep the garbage collector busy for several times as long)."""

    __slots__ = ("levels",)

    def __init__(self, levels: list[tuple[np.ndarray, np.ndarray]]):
        self.levels = levels

    def __iter__(self) -> Iterator[np.ndarray]:
        for ids, _ in self.levels:
            yield from ids


def frequent_antecedents(
    db: BasketDatabase,
    min_count: int,
    max_size: int,
    exclude: Item | None = None,
) -> FrequentItemsets:
    """Frequent itemsets of at most `max_size` items, with their basket
    counts.

    Counting numbers the frequent items by ascending basket count, their
    ranks, and works on rank rows. Level k+1 comes from one `_gram` per
    run of level-k rows sharing their first k-1 ranks, the prefix Q, over
    the run's last ranks, Q's tails (the items t ranked above max(Q) with
    Q | {t} frequent): off-diagonal cell (r, s) is count(Q | {r, s}),
    kept when it reaches `min_count`. Every frequent (k+1)-set is found
    this way, because Q | {r} and Q | {s} are frequent subsets of it, and
    its count is exact, so no candidate needs a subset prune. A prefix
    is its itemset's rarest items, so its cover is small, and the common
    items, which have many frequent supersets, are tails rather than
    prefixes (the ascending-support order of Eclat). Runs, tails and
    kept cells are in ascending rank order, so rows sharing a prefix are
    contiguous; each level is then mapped back to item ids, each row
    sorted, and the rows sorted.
    """
    exclude_id = db.item_ids.get(exclude) if exclude is not None else None
    keep = db.counts >= min_count
    if exclude_id is not None:
        keep[exclude_id] = False
    kept = np.flatnonzero(keep).astype(np.int32)
    # The item id of each rank.
    item_of = kept[np.argsort(db.counts[kept], kind="stable")]
    first = np.arange(len(item_of), dtype=np.int32)[:, None]
    levels = [(first, db.counts[item_of])] if len(item_of) else []

    while levels and len(levels) < max_size:
        ranks, _ = levels[-1]
        starts = _group_starts(ranks[:, :-1])
        heads, pairs, counts = [], [], []
        for lo, hi in zip(starts, starts[1:]):
            if hi - lo < 2:
                continue
            tails = ranks[lo:hi, -1]
            gram = _gram(db, tuple(item_of[ranks[lo, :-1]].tolist()), item_of[tails]).ravel()
            cells = np.flatnonzero(gram >= min_count)
            r, s = np.divmod(cells, len(tails))
            upper = r < s
            cells, r, s = cells[upper], r[upper], s[upper]
            heads.append(np.full(len(r), lo))
            pairs.append(np.stack([tails[r], tails[s]], axis=1))
            counts.append(gram[cells].astype(np.int64))
        n = sum(map(len, counts))
        if not n:
            break
        grown = np.empty((n, ranks.shape[1] + 1), dtype=np.int32)
        grown[:, :-2] = ranks[np.concatenate(heads), :-1]
        grown[:, -2:] = np.concatenate(pairs)
        levels.append((grown, np.concatenate(counts)))
    return FrequentItemsets([_item_level(item_of, *level) for level in levels])


def _item_level(
    item_of: np.ndarray, ranks: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A level of rank rows as (ids, counts) in `FrequentItemsets` form:
    each row's item ids ascending and the rows lexicographic."""
    ids = item_of[ranks]
    # Stable sorts short rows about twice as fast as the default here.
    ids.sort(axis=1, kind="stable")
    order = _row_order(ids)
    return np.take(ids, order, axis=0), counts[order]


def _emit_rules(
    db: BasketDatabase,
    freq: FrequentItemsets,
    target_ids: Sequence[int],
    min_confidence: float,
) -> RuleTable:
    """Every rule X => {y} with X in `freq`, y a target outside X, and
    confidence at least `min_confidence`, as a table over `db.items`
    ordered by (y, X) ids.

    count(X | {y}) of every antecedent comes from `_joint_counts` over
    y's `_target_bitsets`, one bitset matrix held at a time; rows that
    hold y are masked out, and only the rows passing confidence are kept.
    """
    # Row k of `matrix` is antecedent k: the levels' rows in turn, padded
    # with -1.
    starts = np.cumsum([0, *(len(ids) for ids, _ in freq.levels)]).tolist()
    matrix = np.full((starts[-1], len(freq.levels) or 1), -1, np.int32)
    for (ids, _), lo in zip(freq.levels, starts):
        matrix[lo : lo + len(ids), : ids.shape[1]] = ids
    count_x = np.concatenate([np.empty(0, np.int64), *(c for _, c in freq.levels)])

    # With no target there are no rules: three empty columns.
    results = [(np.empty(0, np.int64),) * 3]
    for y in target_ids:
        xy = _joint_counts(_target_bitsets(db, y), matrix)
        keep = ~(xy / count_x < min_confidence)
        for column in matrix.T:
            keep &= column != y
        ks = np.flatnonzero(keep)
        results.append((np.full(len(ks), y), ks, xy[ks]))
    ys, ks, xy = (np.concatenate(column) for column in zip(*results))
    order = _row_order(np.take(matrix, ks, axis=0), ys)
    ys, ks, xy = ys[order], ks[order], xy[order]
    measures = _measure_columns(xy, count_x[ks], db.counts[ys], db.m)
    return RuleTable(
        db.items, np.take(matrix, ks, axis=0), ys.astype(np.int32), **measures._asdict()
    )


def mine_rules(
    db: BasketDatabase,
    consequent: Item,
    constraints: MiningConstraints | None = None,
    workers: int | None = None,
) -> RuleTable:
    """All rules antecedent => {consequent} satisfying the constraints.

    Returns exactly the rules whose antecedent has at most
    `max_antecedent` items, excludes the consequent, meets the
    left-support floor, and whose confidence meets the floor. The table
    is sorted for reproducible output; treat it as a set.

    `workers` is checked (below 1 is a ConfigError) and has no other
    effect: mining runs on the caller's thread. The keyword stays only
    because the benchmark passes it (ROADMAP item 13).
    """
    constraints = constraints or MiningConstraints()
    check_workers(workers)
    consequent_id = db.item_ids.get(consequent)
    if consequent_id is None:
        raise DomainError(f"consequent does not appear in any basket: {consequent}")
    min_count = min_count_for(constraints.min_left_support, db.m)
    freq = frequent_antecedents(db, min_count, constraints.max_antecedent, exclude=consequent)
    return _emit_rules(db, freq, [consequent_id], constraints.min_confidence)


def mine_all_rules(
    db: BasketDatabase,
    constraints: MiningConstraints | None = None,
    workers: int | None = None,
) -> RuleTable:
    """Union of mine_rules over every item appearing in the corpus.

    Frequent antecedents are computed once with no item excluded; every
    item is then a target of the same emitter as `mine_rules`, which
    skips the antecedents that contain it. `workers` is checked as in
    `mine_rules` and has no other effect; the keyword stays only because
    the benchmark passes it (ROADMAP item 13).
    """
    constraints = constraints or MiningConstraints()
    check_workers(workers)
    min_count = min_count_for(constraints.min_left_support, db.m)
    freq = frequent_antecedents(db, min_count, constraints.max_antecedent, exclude=None)
    return _emit_rules(db, freq, range(len(db.items)), constraints.min_confidence)


_CSV_HEADER = ["antecedent", "consequent", *_MEASURES]
# One rule of `json.dump(..., indent=1)` of the rule objects: antecedent
# token lines, consequent, then the measures in `_MEASURES` order.
_JSON_RULE = (
    ' {\n  "antecedent": [\n%s\n  ],\n  "consequent": %s,\n'
    + ",\n".join(f'  "{name}": %s' for name in _MEASURES)
    + "\n }"
)


def _text_columns(
    rules: Iterable[AssociationRule], antecedent_text, token_text, number_text
) -> Iterator[tuple[str, ...]]:
    """Each rule as strings, in `sort_key` order: its antecedent through
    `antecedent_text` of its sorted tokens, its consequent through
    `token_text`, and its measures, in `_MEASURES` order, through
    `number_text`. Each distinct antecedent row and each distinct value
    of a measure is formatted once."""
    table = RuleTable.from_rules(rules)
    # Ids follow token order, so this is the order of (consequent token,
    # antecedent tokens), ties kept.
    table = table[_row_order(table.antecedent, table.consequent)]
    tokens = [it.token for it in table.items]
    rows, inverse = _distinct_rows(table.antecedent)
    texts = [antecedent_text([tokens[i] for i in row if i >= 0]) for row in rows.tolist()]
    consequents = [token_text(t) for t in tokens]
    return zip(
        [texts[k] for k in inverse.tolist()],
        [consequents[y] for y in table.consequent.tolist()],
        *(_formatted(getattr(table, name), number_text) for name in _MEASURES),
    )


def _formatted(column: np.ndarray, number_text) -> list[str]:
    """`number_text` of each value, called once per distinct bit pattern."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = [number_text(v) for v in bits.view(np.float64).tolist()]
    return [texts[k] for k in inverse.tolist()]


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it inside a row (quoted if needed)."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[: -len(",\r\n")]


def _json_number(value: float) -> str:
    """A float as `json` writes it."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


def write_rules_csv(rules: Iterable[AssociationRule], path: str) -> None:
    """The bytes `csv.writer` writes for the header and one row per rule,
    in `sort_key` order: antecedent tokens `|`-joined, reals at 12
    significant digits (which never need quoting)."""
    lines = _text_columns(
        rules, lambda tokens: _csv_field("|".join(tokens)), _csv_field, "{:.12g}".format
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        fh.writelines(",".join(fields) + "\r\n" for fields in lines)


def write_rules_json(rules: Iterable[AssociationRule], path: str) -> None:
    """The bytes of `json.dump` with `indent=1` of one object per rule,
    in `sort_key` order; reals are exact."""
    lines = _text_columns(
        rules,
        lambda tokens: ",\n".join("   " + json.dumps(t) for t in tokens),
        json.dumps,
        _json_number,
    )
    body = ",\n".join(_JSON_RULE % fields for fields in lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[\n{body}\n]\n" if body else "[]\n")


def _check_fields(
    antecedent_tokens: Sequence[str], consequent_token: str, numbers: Sequence[str | float]
) -> None:
    """Build one rule from its fields, raising the row's first error: a
    bad token, then a number `float` rejects, then a broken rule
    invariant, then a measure that is not finite. `numbers` come in
    `_MEASURES` order. The readers call this only to report a malformed
    row."""
    items = {token: parse_item(token) for token in (*antecedent_tokens, consequent_token)}
    measures = {name: float(v) for name, v in zip(_MEASURES, numbers)}
    AssociationRule(
        frozenset(items[t] for t in antecedent_tokens), items[consequent_token], **measures
    )
    for name, value in measures.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def _rule_table(blocks: Iterable, split: Callable, fault: Callable) -> RuleTable:
    """A table of rules given a block of rows at a time, each block as
    (source, columns). The columns are the antecedent keys (`split` gives
    a key's tokens), the consequent tokens and the five raw measure
    columns in `_MEASURES` order, each measure converted by `float` and
    required finite; they are None when the block's rows are malformed.
    A block that fails goes to `fault(source)`, which raises its first
    bad row's error. Each distinct token and antecedent key is parsed
    once."""
    items: dict[Item, int] = {}  # each distinct item, by first sight
    item_of: dict[str, int] = {}  # token -> its item's index in `items`
    key_of: dict = {}  # antecedent key -> its index in `rows`
    rows: list[list[int]] = []  # per antecedent key, its ascending item indexes
    members: set[int] = set()  # (antecedent index << 32) | item index, per member
    parts = []

    def add_item(token: str) -> int:
        return items.setdefault(parse_item(token), len(items))

    def add_key(key) -> int:
        row = sorted(set(column_values(item_of, split(key), add_item)))
        if not row:
            raise DomainError("rule antecedent must not be empty")
        members.update((len(rows) << 32) | i for i in row)
        rows.append(row)
        return len(rows) - 1

    for source, columns in blocks:
        try:
            antecedents, consequents, *numbers = columns  # None (a TypeError) if malformed
            key = np.array(column_values(key_of, antecedents, add_key), np.int64)
            consequent = np.array(column_values(item_of, consequents, add_item), np.int64)
            measures = [np.fromiter(map(float, column), np.float64, len(key)) for column in numbers]
            if not np.isfinite(measures).all():
                raise ValueError("a measure is not finite")
            if not members.isdisjoint(((key << 32) | consequent).tolist()):
                raise DomainError("a consequent is in its antecedent")
        except INPUT_FAULTS:
            fault(source)
        parts.append((key, consequent, *measures))
    # Item indexes in token order, the -1 pad kept last in each row.
    order = sorted(items, key=lambda it: it.token)
    rank = np.empty(len(items) + 1, dtype=np.int32)
    rank[[items[it] for it in order]] = np.arange(len(items))
    rank[-1] = len(items)
    distinct = np.sort(rank[_id_matrix(rows)], axis=1)
    distinct[distinct == len(items)] = -1
    if not parts:
        parts = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0),) * len(_MEASURES)]
    key, consequent, *measures = (np.concatenate(column) for column in zip(*parts))
    return RuleTable(order, distinct[key], rank[consequent], *measures)


def read_rules_csv(path: str) -> RuleTable:
    """The rules of a rules.csv file, read a block of rows at a time; a
    malformed row raises its ParseError with its line."""
    return _rule_table(
        ((block, block.columns) for block in csv_columns(path, _CSV_HEADER)),
        lambda key: key.split("|"),
        lambda block: raise_first_fault(
            block.rows(), lambda row: _check_fields(row[0].split("|"), row[1], row[2:]), path
        ),
    )


def _check_object(obj: dict) -> None:
    """Build one rules.json object's rule as `_check_fields` does, then
    require each measure to be a JSON number. A measure that is an
    integer too large for a float is named before any other error."""
    numbers = [json_number(obj, n) if type(obj[n]) is int else obj[n] for n in _MEASURES]
    _check_fields(json_list(obj["antecedent"], "antecedent"), obj["consequent"], numbers)
    for name in _MEASURES:
        json_number(obj, name)


def read_rules_json(path: str) -> RuleTable:
    payload = read_json(path)
    if not isinstance(payload, list):
        raise ParseError(
            f"top level must be a list of rule objects, not {type(payload).__name__}",
            source=path,
        )
    try:
        numbers = [[obj[name] for obj in payload] for name in _MEASURES]
        if not set(map(type, chain.from_iterable(numbers))) <= {int, float}:
            raise TypeError("a measure is not a number")
        antecedents = [tuple(json_list(obj["antecedent"], "antecedent")) for obj in payload]
        columns = [antecedents, [obj["consequent"] for obj in payload], *numbers]
    except INPUT_FAULTS:
        columns = None
    return _rule_table(
        [(payload, columns)],
        lambda key: key,
        lambda objs: raise_first_fault(
            zip(repeat(None), objs), _check_object, path, "bad rule object: "
        ),
    )
