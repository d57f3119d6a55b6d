"""Association rule mining under left-support and confidence constraints.

Rules have an itemset antecedent and a single-item consequent. The
left-support constraint (on the antecedent alone) replaces the usual
rule-support constraint so that rules predicting rare consequents are
still discoverable. Growth is level-wise: an antecedent whose support
falls below the left-support floor is never extended, which is sound
because support is anti-monotone under supersets. Confidence is not
anti-monotone, so it filters at emission only.

All measures are derived from exact integer basket counts at the last
step; reports are bit-reproducible across runs and worker counts.
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


@dataclass(frozen=True)
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
    total = 0.0
    for o, e in zip(table.observed, table.expected):
        total += (o - e) ** 2 / e
    return table.m * total


class RuleMeasures(NamedTuple):
    """The five measures of a rule, in `AssociationRule`'s field order."""

    support: float
    left_support: float
    confidence: float
    lift: float
    chi_squared: float


def contingency_from_counts(
    count_xy: int, count_x: int, count_y: int, m: int
) -> ContingencyTable:
    """Contingency cells from integer counts.

    Every cell is one correctly-rounded division of exact integer
    products, so algebraically equal cells (observed == expected under
    independence) come out as identical floats and the chi-squared is
    exactly zero exactly when the lift is one.
    """
    count_xy, count_x, count_y, m = int(count_xy), int(count_x), int(count_y), int(m)
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
    return ContingencyTable(observed=observed, expected=expected, m=m)


def rule_measures(count_xy: int, count_x: int, count_y: int, m: int) -> RuleMeasures:
    """All five rule measures from exact basket counts."""
    if m <= 0:
        raise DomainError("basket count must be positive")
    if count_x <= 0 or count_y <= 0:
        raise DomainError("confidence and lift are undefined for empty marginals")
    if not 0 <= count_xy <= min(count_x, count_y) or count_x + count_y - count_xy > m:
        raise DomainError(
            f"inconsistent counts: xy={count_xy}, x={count_x}, y={count_y}, m={m}"
        )
    table = contingency_from_counts(count_xy, count_x, count_y, m)
    return RuleMeasures(
        support=count_xy / m,
        left_support=count_x / m,
        confidence=count_xy / count_x,
        lift=(count_xy * m) / (count_x * count_y),
        chi_squared=chi_squared(table),
    )


def min_count_for(threshold: float, m: int) -> int:
    """Smallest basket count c with c/m >= threshold."""
    c = max(1, math.ceil(threshold * m))
    while c > 1 and (c - 1) / m >= threshold:
        c -= 1
    while c / m < threshold:
        c += 1
    return c


def _count_over(db: BasketDatabase, tids: np.ndarray, ext_ids: Sequence[int]) -> np.ndarray:
    """count(cover AND {e}) for each extension id, given the cover's ordinals."""
    return db.bits[np.ix_(np.asarray(ext_ids), tids)].sum(axis=1, dtype=np.int64)


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
    """Level-wise frequent itemsets as sorted item-id tuples -> basket count.

    Candidates at level k+1 join two frequent k-sets sharing a prefix and
    are pruned unless every k-subset is frequent.
    """
    workers = resolve_workers(workers)
    exclude_id = db.item_ids.get(exclude) if exclude is not None else None

    freq: dict[tuple[int, ...], int] = {}
    current: list[tuple[int, ...]] = []
    for i in range(len(db.items)):
        if i == exclude_id:
            continue
        c = int(db.counts[i])
        if c >= min_count:
            freq[(i,)] = c
            current.append((i,))
    current.sort()

    size = 1
    while size < max_size and current:
        jobs: list[tuple[tuple[int, ...], int, np.ndarray]] = []
        # Join step: extend each k-set with the larger tails of its prefix
        # group, then prune candidates with an infrequent k-subset. The
        # pair->triple transition dominates, so its prune uses a boolean
        # adjacency row per leading item instead of generic tuple checks.
        pair_rows: dict[int, np.ndarray] = {}
        current_set: set[tuple[int, ...]] = set()
        if size == 2:
            n_items = len(db.items)
            for a, b in current:
                row = pair_rows.get(a)
                if row is None:
                    row = np.zeros(n_items, dtype=bool)
                    pair_rows[a] = row
                row[b] = True
        elif size >= 3:
            current_set = set(current)
        for prefix, group in groupby(current, key=lambda t: t[:-1]):
            tails = np.asarray([t[-1] for t in group])
            for idx in range(len(tails) - 1):
                la = int(tails[idx])
                exts = tails[idx + 1 :]
                if size == 2:
                    row = pair_rows.get(la)
                    exts = exts[row[exts]] if row is not None else exts[:0]
                elif size >= 3:
                    exts = np.asarray(
                        [
                            e
                            for e in exts
                            if all(
                                tuple(v for v in prefix + (la, int(e)) if v != drop)
                                in current_set
                                for drop in prefix
                            )
                        ],
                        dtype=tails.dtype,
                    )
                if len(exts):
                    jobs.append((prefix, la, exts))

        def count_job(job):
            prefix, la, exts = job
            return _count_over(db, db.cover(prefix + (la,)), exts)

        results = _run_jobs(jobs, count_job, workers)
        next_level: dict[tuple[int, ...], int] = {}
        for (prefix, la, exts), counts in zip(jobs, results):
            for j in np.nonzero(counts >= min_count)[0]:
                next_level[prefix + (la, int(exts[j]))] = int(counts[j])
        freq.update(next_level)
        current = sorted(next_level)
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
    confidence at least `min_confidence`, sorted by `sort_key`.

    Antecedents sharing a prefix P form a group whose count(X union {y})
    values make one targets x tails matrix. It is counted along its
    shorter side: the cover of P+{y} per target gathered over the tails,
    or the cover of P+{tail} per tail gathered over the targets.
    """
    if not freq:
        return []
    targets = np.asarray(target_ids, dtype=np.int64)
    antecedents = sorted(freq)
    groups = [
        (prefix, [t[-1] for t in group])
        for prefix, group in groupby(antecedents, key=lambda t: t[:-1])
    ]

    def count_group(group) -> np.ndarray:
        prefix, tails = group
        if len(targets) <= len(tails):
            return np.stack([_count_over(db, db.cover(prefix + (y,)), tails) for y in target_ids])
        return np.stack([_count_over(db, db.cover(prefix + (t,)), targets) for t in tails], axis=1)

    # count(X union {y}): one row per target, one column per antecedent.
    xy = np.concatenate(_run_jobs(groups, count_group, workers), axis=1)
    count_x = [freq[ids] for ids in antecedents]
    cols, rows = np.nonzero(~(xy / np.asarray(count_x) < min_confidence).T)
    count_y = db.counts.tolist()
    rules = []
    last = None
    for j, r, count_xy in zip(cols.tolist(), rows.tolist(), xy[rows, cols].tolist()):
        ids, y = antecedents[j], target_ids[r]
        if y in ids:
            continue  # a target inside the antecedent makes no rule
        if j != last:
            antecedent, last = frozenset(db.items[i] for i in ids), j
        measures = rule_measures(count_xy, count_x[j], count_y[y], db.m)
        rules.append(AssociationRule(antecedent, db.items[y], *measures))
    rules.sort(key=AssociationRule.sort_key)
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


def write_rules_csv(rules: Iterable[AssociationRule], path: str) -> None:
    ordered = sorted(rules, key=AssociationRule.sort_key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in ordered:
            numbers = (f"{getattr(r, name):.12g}" for name in _MEASURES)
            writer.writerow(["|".join(r.antecedent_tokens), r.consequent.token, *numbers])


def write_rules_json(rules: Iterable[AssociationRule], path: str) -> None:
    ordered = sorted(rules, key=AssociationRule.sort_key)
    payload = [
        {
            "antecedent": list(r.antecedent_tokens),
            "consequent": r.consequent.token,
            **{name: getattr(r, name) for name in _MEASURES},
        }
        for r in ordered
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
