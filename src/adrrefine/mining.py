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
items larger than the prefix; the same product over the baskets that
also hold a consequent gives the rules' joint counts. Support is
anti-monotone under supersets, so an itemset below the left-support
floor is never a prefix or a row, and because every count is exact no
candidate needs a subset prune.

All measures are derived from exact integer basket counts, as columns
over all rules at once that equal the one-rule formula bit for bit;
reports are bit-reproducible across runs and worker counts.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .baskets import BasketDatabase
from .codes import Item, parse_item
from .errors import ConfigError, DomainError, ParseError

DEFAULT_MIN_LEFT_SUPPORT = 0.001
DEFAULT_MIN_CONFIDENCE = 0.01
DEFAULT_MAX_ANTECEDENT = 3


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


def _measure_columns(
    count_xy: np.ndarray, count_x: np.ndarray, count_y: np.ndarray, m: int
) -> RuleMeasures:
    """The five measures of many rules at once, as float64 columns.

    Each entry equals the scalar formula on Python ints bit for bit:
    every measure and contingency cell (`_cells`) is one correctly
    rounded division of exact integer products. numpy divides int64
    operands in float64, which is exact while every product (at most
    m*m) stays below 2**53; above that the counts become Python ints in
    object columns.
    """
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


# Bytes of one rows x baskets float32 input block of `_gram`. It bounds
# only that block: the Gram itself and each chunk's product are rows x
# rows, so they grow with the square of the row count.
_GRAM_BYTES = 1 << 25
# Rules built per block of measure columns in `_emit_rules`.
_RULE_BLOCK = 4096


def _gram(
    db: BasketDatabase, prefix: tuple[int, ...], rows: np.ndarray, extra: tuple[int, ...] = ()
) -> np.ndarray:
    """Co-occurrence counts of the items `rows` inside the baskets holding
    every item of `prefix` and `extra`, as an int64 rows x rows matrix.

    Off-diagonal cell (r, s) is count(prefix | extra | {rows[r], rows[s]});
    diagonal cell r is count(prefix | extra | {rows[r]}). The 0/1 block of
    `rows` over the cover is multiplied by its own transpose, chunked over
    baskets so one float32 block stays within `_GRAM_BYTES`, and each
    chunk's product is summed in int64. The product is exact at any m: a
    chunk's partial sums are integers of at most its basket count, which
    `_GRAM_BYTES` keeps at or below 2**23, and float32 holds every
    integer up to 2**24 exactly.
    """
    tids = db.cover(prefix + extra)
    step = max(1, _GRAM_BYTES // (4 * max(1, len(rows))))
    gram = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for lo in range(0, len(tids), step):
        block = db.bits[np.ix_(rows, tids[lo : lo + step])].astype(np.float32)
        gram += (block @ block.T).astype(np.int64)
    return gram


def _union(*ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of non-negative id arrays, through a
    bincount rather than `np.unique`: with numpy 2.4, unique's first call
    alone adds about 1.6 MB of resident memory."""
    return np.flatnonzero(np.bincount(np.concatenate(ids)))


def resolve_workers(workers: int | None) -> int:
    """Worker count to use: every core for None; below 1 is a ConfigError."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1: {workers}")
    return workers


def _run_jobs(jobs, fn, workers: int):
    """Run `fn` over jobs, threaded when workers > 1. Results come back in
    submission order, so the merged output never depends on scheduling."""
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def frequent_antecedents(
    db: BasketDatabase,
    min_count: int,
    max_size: int,
    exclude: Item | None = None,
    workers: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Frequent itemsets of at most `max_size` items, as sorted item-id
    tuples -> basket count, level by level in sorted order.

    Level k+2 comes from one `_gram` per frequent k-set Q, over Q's tails
    (the items t > max(Q) with Q | {t} frequent): off-diagonal cell
    (r, s) is count(Q | {r, s}), kept when it reaches `min_count`. Every
    frequent (k+2)-set is found this way, because Q | {r} and Q | {s}
    are frequent subsets of it, and its count is exact, so no candidate
    needs a subset prune. Level 2 takes Q = (), level 3 Q = (a,).
    """
    workers = resolve_workers(workers)
    exclude_id = db.item_ids.get(exclude) if exclude is not None else None
    level = [
        (i,)
        for i in range(len(db.items))
        if i != exclude_id and db.counts[i] >= min_count
    ]
    freq = {ids: int(db.counts[ids[0]]) for ids in level}

    size = 1
    while size < max_size and level:
        groups = []
        for prefix, group in groupby(level, key=lambda t: t[:-1]):
            tails = np.array([t[-1] for t in group])
            if len(tails) > 1:
                groups.append((prefix, tails))

        def count_group(group):
            prefix, tails = group
            gram = _gram(db, prefix, tails)
            r, s = np.nonzero(np.triu(gram >= min_count, 1))
            return tails[r].tolist(), tails[s].tolist(), gram[r, s].tolist()

        level = []
        for (prefix, _), cells in zip(groups, _run_jobs(groups, count_group, workers)):
            for r, s, count in zip(*cells):
                ids = prefix + (r, s)
                freq[ids] = count
                level.append(ids)
        size += 1
    return freq


def _emit_rules(
    db: BasketDatabase,
    freq: dict[tuple[int, ...], int],
    target_ids: Sequence[int],
    min_confidence: float,
    workers: int,
) -> list[AssociationRule]:
    """Every rule X => {y} with X in `freq`, y a target outside X, and
    confidence at least `min_confidence`, ordered by (y, X) ids.

    count(X | {y}) comes from prefix Grams. A prefix Q serves the
    antecedents Q | {r, s} and, for Q = (), the single items {r}, written
    as cell (r, r); `_gram(db, Q, rows, extra=(y,))`, over the baskets
    holding y, has count(X | {y}) in each antecedent's cell. A worker
    holds one Gram at a time, and keeps only the cells passing
    confidence.
    """
    antecedents = sorted(freq)
    count_x = np.array([freq[ids] for ids in antecedents], dtype=np.int64)
    # Per prefix Q: the item pair (r, s) of each antecedent it serves and
    # the antecedent's index in `antecedents`. The antecedents of one size
    # are sorted, so those sharing Q are contiguous.
    served: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    sizes = np.array([len(ids) for ids in antecedents])
    for size in sorted(set(sizes.tolist())):
        ks = np.flatnonzero(sizes == size)
        ids = np.array([antecedents[k] for k in ks]).reshape(len(ks), size)
        pairs, heads = ids[:, [-2, -1] if size > 1 else [0, 0]], ids[:, :-2]
        starts = np.flatnonzero(np.r_[True, (heads[1:] != heads[:-1]).any(axis=1)]).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(ks)]):
            q = tuple(heads[lo].tolist())
            cells = (pairs[lo:hi, 0], pairs[lo:hi, 1], ks[lo:hi])
            if q in served:  # () serves the single items and the pairs
                cells = tuple(map(np.concatenate, zip(served[q], cells)))
            served[q] = cells

    def count_target(job):
        q, r, s, ks, y = job
        rows = _union(r, s)
        xy = _gram(db, q, rows, (y,))[np.searchsorted(rows, r), np.searchsorted(rows, s)]
        keep = (r != y) & (s != y) & ~(xy / count_x[ks] < min_confidence)
        return np.full(keep.sum(), y), ks[keep], xy[keep]

    jobs = [
        (q, r, s, ks, y)
        for q, (r, s, ks) in served.items()
        for y in target_ids
        if y not in q
    ]
    if not jobs:
        return []
    results = _run_jobs(jobs, count_target, workers)
    ys, ks, xy = (np.concatenate(column) for column in zip(*results))
    order = np.lexsort((ks, ys))
    ys, ks, xy = ys[order], ks[order], xy[order]
    # Rules are built a block at a time, so the measure columns and their
    # Python floats stay small next to the rules they go into.
    items = db.items
    sets: list[frozenset[Item] | None] = [None] * len(antecedents)
    rules = []
    for lo in range(0, len(ks), _RULE_BLOCK):
        k_block, y_block = ks[lo : lo + _RULE_BLOCK], ys[lo : lo + _RULE_BLOCK]
        columns = _measure_columns(
            xy[lo : lo + _RULE_BLOCK], count_x[k_block], db.counts[y_block], db.m
        )
        values = zip(k_block.tolist(), y_block.tolist(), *(c.tolist() for c in columns))
        for k, y, *measures in values:
            antecedent = sets[k]
            if antecedent is None:
                antecedent = sets[k] = frozenset(items[i] for i in antecedents[k])
            rules.append(AssociationRule(antecedent, items[y], *measures))
    return rules


def mine_rules(
    db: BasketDatabase,
    consequent: Item,
    constraints: MiningConstraints | None = None,
    workers: int | None = None,
) -> list[AssociationRule]:
    """All rules antecedent => {consequent} satisfying the constraints.

    Returns exactly the rules whose antecedent has at most
    `max_antecedent` items, excludes the consequent, meets the
    left-support floor, and whose confidence meets the floor. The list
    is sorted for reproducible output; treat it as a set.
    """
    constraints = constraints or MiningConstraints()
    workers = resolve_workers(workers)
    consequent_id = db.item_ids.get(consequent)
    if consequent_id is None:
        raise DomainError(f"consequent does not appear in any basket: {consequent}")
    min_count = min_count_for(constraints.min_left_support, db.m)
    freq = frequent_antecedents(
        db, min_count, constraints.max_antecedent, exclude=consequent, workers=workers
    )
    return _emit_rules(db, freq, [consequent_id], constraints.min_confidence, workers)


def mine_all_rules(
    db: BasketDatabase,
    constraints: MiningConstraints | None = None,
    workers: int | None = None,
) -> list[AssociationRule]:
    """Union of mine_rules over every item appearing in the corpus.

    Frequent antecedents are computed once with no item excluded; every
    item is then a target of the same emitter as `mine_rules`, which
    skips the antecedents that contain it.
    """
    constraints = constraints or MiningConstraints()
    workers = resolve_workers(workers)
    min_count = min_count_for(constraints.min_left_support, db.m)
    freq = frequent_antecedents(
        db, min_count, constraints.max_antecedent, exclude=None, workers=workers
    )
    return _emit_rules(
        db, freq, range(len(db.items)), constraints.min_confidence, workers
    )


_MEASURES = ["left_support", "support", "confidence", "lift", "chi_squared"]
_CSV_HEADER = ["antecedent", "consequent", *_MEASURES]


def _sorted_with_tokens(
    rules: Iterable[AssociationRule],
) -> list[tuple[str, tuple[str, ...], AssociationRule]]:
    """(consequent token, antecedent tokens, rule) in `sort_key` order,
    with each rule's tokens worked out once."""
    decorated = [(r.consequent.token, r.antecedent_tokens, r) for r in rules]
    decorated.sort(key=lambda row: row[:2])
    return decorated


def write_rules_csv(rules: Iterable[AssociationRule], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for consequent, antecedent, r in _sorted_with_tokens(rules):
            numbers = (f"{getattr(r, name):.12g}" for name in _MEASURES)
            writer.writerow(["|".join(antecedent), consequent, *numbers])


def write_rules_json(rules: Iterable[AssociationRule], path: str) -> None:
    payload = [
        {
            "antecedent": list(antecedent),
            "consequent": consequent,
            **{name: getattr(r, name) for name in _MEASURES},
        }
        for consequent, antecedent, r in _sorted_with_tokens(rules)
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _rule_from_fields(
    antecedent_tokens: Sequence[str],
    consequent_token: str,
    numbers: Sequence[str | float],
    items: dict[str, Item],
) -> AssociationRule:
    """`numbers` come in `_MEASURES` order. `items` caches one file's parsed
    tokens, so each token is parsed once and its rules share one Item."""
    for token in (*antecedent_tokens, consequent_token):
        if token not in items:
            items[token] = parse_item(token)
    return AssociationRule(
        antecedent=frozenset(items[t] for t in antecedent_tokens),
        consequent=items[consequent_token],
        **{name: float(v) for name, v in zip(_MEASURES, numbers)},
    )


def read_rules_csv(path: str) -> list[AssociationRule]:
    rules = []
    items: dict[str, Item] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ParseError(f"expected header {','.join(_CSV_HEADER)}", source=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_CSV_HEADER):
                raise ParseError(
                    f"expected {len(_CSV_HEADER)} fields, got {len(row)}",
                    source=path,
                    line=lineno,
                )
            try:
                rules.append(_rule_from_fields(row[0].split("|"), row[1], row[2:], items))
            except (ValueError, ParseError, DomainError) as exc:
                raise ParseError(str(exc), source=path, line=lineno) from None
    return rules


def read_rules_json(path: str) -> list[AssociationRule]:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), source=path) from None
    rules = []
    items: dict[str, Item] = {}
    for obj in payload:
        try:
            numbers = [obj[name] for name in _MEASURES]
            rules.append(_rule_from_fields(obj["antecedent"], obj["consequent"], numbers, items))
        except (KeyError, TypeError, ValueError, ParseError, DomainError) as exc:
            raise ParseError(f"bad rule object: {exc}", source=path) from None
    return rules
