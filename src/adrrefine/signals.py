"""Candidate drug/outcome signal generation.

A signal pairs a drug family of interest with an outcome code of
interest. Candidate signals are scored with the after/before ratio (how
often the outcome follows a prescription versus precedes it inside a
mirrored day window), and signal instances are the (patient, first
prescription date, outcome date) triplets whose gap falls in the window.

A signal's rows are selected through its store's code table: one mask
per code id says which codes belong to the drug family or the outcome,
and `_select` turns a mask into the ascending row numbers whose code id
is set, in one pass over the code column and no per-row Python. A drug
code is in the family when its first `bnf_level(entry)` parts equal
some entry's; a diagnosis code is an outcome record when its first
`read_level(hoi)` characters equal the query's. Each prefix form is the
truncation rule itself: `bnf_truncate(code, bnf_level(entry)) == entry`
and `read_truncate(code, read_level(hoi)) == hoi`.

`exposure_count`, `find_instances` and `ab_ratio` each need the family's
rows, and the last two the outcome's too. They ask `_rows`, which keeps
its selections on the store, read-only and keyed by the mask's bytes, so
one refine passes over the rows once for its family and once for its
outcome. It keeps the two most recently used, one signal's family and
outcome, so the memo does not grow with the number of signals screened.
It is held by the store, not by the code table: a store and its
`apply_prescription_exclusions` store share one code table, not rows.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codes import BnfCode, ReadCode, bnf_level, parse_bnf, parse_read, read_level
from .errors import ConfigError, ParseError, checked, csv_rows, integral, json_list, read_json
from .events import EventStore, _frozen

DEFAULT_WINDOW = (1, 60)


@dataclass(frozen=True)
class SignalSpec:
    """A drug-of-interest / outcome-of-interest pair.

    `doi` entries are drug codes at any level; a prescription belongs to
    the family when its code truncated to the entry's level equals the
    entry. A level-2 entry therefore selects the whole mapped family
    while a full-depth entry pins one exact code. The outcome query is a
    diagnosis code at any level, matched against record descendants.
    """

    doi: frozenset[BnfCode]
    hoi: ReadCode
    window: tuple[int, int] = DEFAULT_WINDOW
    name: str = ""

    def __post_init__(self):
        if not self.doi:
            raise ConfigError("signal spec needs at least one drug code")
        if len(self.window) != 2 or not all(map(integral, self.window)):
            raise ConfigError(f"window must be two integer days: {self.window}")
        start, end = self.window
        if start < 1:
            raise ConfigError(f"window must start at day 1 or later: {self.window}")
        if start > end:
            raise ConfigError(f"window start after end: {self.window}")

    @property
    def label(self) -> str:
        return self.name or str(self.hoi)


@dataclass(frozen=True, slots=True)
class SignalInstance:
    patient_id: str
    doi_date: dt.date
    hoi_date: dt.date


def load_signal_spec(path: str) -> SignalSpec:
    """Read a signal spec JSON file: doi_items, hoi_code, window, name."""
    [(doi, hoi, window, name)] = checked(
        [(None, read_json(path))], _spec_fields, path, "bad signal spec: "
    )
    if not isinstance(name, str):
        raise ParseError(f"name must be a string: {json.dumps(name)}", source=path)
    if len(window) != 2 or not all(type(v) is int for v in window):
        raise ParseError(f"window must be two integer days: {window}", source=path)
    return SignalSpec(doi=doi, hoi=hoi, window=window, name=name)  # type: ignore[arg-type]


def _spec_fields(payload: dict) -> tuple:
    """A signal spec's drug family, outcome code, window and name."""
    return (
        frozenset(parse_bnf(code) for code in json_list(payload["doi_items"], "doi_items")),
        parse_read(payload["hoi_code"]),
        tuple(json_list(payload.get("window", [*DEFAULT_WINDOW]), "window")),
        payload.get("name", ""),
    )


def doi_matches(code: BnfCode, doi: frozenset[BnfCode]) -> bool:
    """True when the drug code falls under any family entry: its first
    `bnf_level(entry)` parts are the entry's."""
    for entry in doi:
        k = bnf_level(entry)
        if code.parts[:k] == entry.parts[:k]:
            return True
    return False


def _code_mask(store: EventStore, keep) -> np.ndarray:
    """Per code id of the store's code table, `keep(parsed code)`."""
    table = store.code_table
    return np.fromiter((keep(parsed) for parsed, _ in table.values()), bool, len(table))


def _family_mask(store: EventStore, doi: frozenset[BnfCode]) -> np.ndarray:
    """Per code id: a drug code in the family."""
    return _code_mask(store, lambda c: isinstance(c, BnfCode) and doi_matches(c, doi))


def _outcome_mask(store: EventStore, hoi: ReadCode) -> np.ndarray:
    """Per code id: a diagnosis code that equals the query or descends
    from it, so its first `read_level(hoi)` characters are the query's."""
    level = read_level(hoi)
    prefix = hoi.chars[:level]
    return _code_mask(store, lambda c: isinstance(c, ReadCode) and c.chars[:level] == prefix)


def _select(store: EventStore, code_mask: np.ndarray) -> np.ndarray:
    """Ascending row numbers of the store whose code id is set in `code_mask`."""
    # `take` by the int32 code column runs about 2.8x as fast as `code_mask[code]`
    # (25,776 rows on a 2 vCPU host: 29 us against 82 us).
    return _frozen(np.flatnonzero(code_mask.take(store.columns.code)))


def _rows(store: EventStore, code_mask: np.ndarray) -> np.ndarray:
    """`_select(store, code_mask)`, from the store's two most recently
    used selections when it is one of them."""
    key = code_mask.tobytes()
    # (mask bytes, rows) pairs, most recently used first. The tuple is
    # replaced, never changed, so a store read by two threads at worst misses.
    kept = getattr(store, "_selections", ())
    rows = next((rows for k, rows in kept if k == key), None)
    if rows is None:
        rows = _select(store, code_mask)
    store._selections = ((key, rows), *((k, r) for k, r in kept if k != key))[:2]
    return rows


# No two day numbers are further apart than this, so a window is cut to it.
_MAX_GAP = dt.date.max.toordinal()


def _window(spec: SignalSpec) -> tuple[int, int]:
    start, end = spec.window
    return min(start, _MAX_GAP + 1), min(end, _MAX_GAP)


@dataclass(frozen=True)
class AbResult:
    after_count: int
    before_count: int
    ratio: float


def ab_ratio(spec: SignalSpec, store: EventStore) -> AbResult:
    """After/before ratio over distinct prescriptions of the drug family.

    A prescription counts once per distinct (patient, date, level-2 drug
    item); it is an "after" hit when any matching outcome record falls
    within the window after it, a "before" hit for the mirrored window.
    A zero before-count leaves the ratio equal to the after-count.
    """
    start, end = _window(spec)
    columns = store.columns
    outcome = columns.key[_rows(store, _outcome_mask(store, spec.hoi))]
    family = _rows(store, _family_mask(store, spec.doi))
    drug, item = columns.key[family], columns.codes.item_id[columns.code[family]]
    order = np.lexsort((item, drug))
    drug, item = drug[order], item[order]
    distinct = np.ones(len(drug), dtype=bool)
    distinct[1:] = (drug[1:] != drug[:-1]) | (item[1:] != item[:-1])
    drug = drug[distinct]

    def hits(lo: np.ndarray, hi: np.ndarray) -> int:
        """Prescriptions with an outcome key in [lo, hi]."""
        return int(np.count_nonzero(
            np.searchsorted(outcome, lo) < np.searchsorted(outcome, hi, side="right")
        ))

    after = hits(drug + start, drug + end)
    before = hits(drug - end, drug - start)
    return AbResult(after, before, after / max(before, 1))


def find_instances(spec: SignalSpec, store: EventStore) -> list[SignalInstance]:
    """One instance per patient whose first prescription is followed by a
    matching outcome inside the window; the earliest such outcome wins."""
    start, end = _window(spec)
    columns = store.columns
    patient = columns.patient
    family = _rows(store, _family_mask(store, spec.doi))
    first = family[_group_starts(patient[family])]  # each exposed patient's first prescription
    doi_day = np.full(len(columns.pids), _MAX_GAP * 3, dtype=np.int64)  # beyond every window
    doi_day[patient[first]] = columns.day[first]
    outcome = _rows(store, _outcome_mask(store, spec.hoi))
    gap = columns.day[outcome] - doi_day[patient[outcome]]  # int64, as `doi_day` is
    hit = outcome[(gap >= start) & (gap <= end)]
    hit = hit[_group_starts(patient[hit])]  # each patient's earliest outcome in the window
    instances = [
        SignalInstance(columns.pids[k], dt.date.fromordinal(d0), dt.date.fromordinal(d1))
        for k, d0, d1 in zip(
            patient[hit].tolist(), doi_day[patient[hit]].tolist(), columns.day[hit].tolist()
        )
    ]
    instances.sort(key=lambda inst: inst.patient_id)
    return instances


def _group_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values begins."""
    starts = np.ones(len(sorted_ids), dtype=bool)
    starts[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return np.flatnonzero(starts)


def exposure_count(doi: frozenset[BnfCode], store: EventStore) -> int:
    """Number of patients with at least one retained family prescription."""
    exposed = store.columns.patient[_rows(store, _family_mask(store, doi))]
    return len(_group_starts(exposed))


_INSTANCES_HEADER = ["patient_id", "doi_date", "hoi_date"]


def write_instances_csv(instances: Iterable[SignalInstance], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_INSTANCES_HEADER)
        for inst in instances:
            writer.writerow([inst.patient_id, inst.doi_date.isoformat(), inst.hoi_date.isoformat()])


def read_instances_csv(path: str) -> list[SignalInstance]:
    rows = csv_rows(path, _INSTANCES_HEADER)
    return list(
        checked(rows, lambda r: SignalInstance(r[0], *map(dt.date.fromisoformat, r[1:])), path)
    )
