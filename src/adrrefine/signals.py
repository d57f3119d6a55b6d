"""Candidate drug/outcome signal generation.

A signal pairs a drug family of interest with an outcome code of
interest. Candidate signals are scored with the after/before ratio (how
often the outcome follows a prescription versus precedes it inside a
mirrored day window), and signal instances are the (patient, first
prescription date, outcome date) triplets whose gap falls in the window.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codes import (
    BnfCode,
    ReadCode,
    bnf_level,
    bnf_truncate,
    parse_bnf,
    parse_read,
    read_level,
    read_truncate,
)
from .errors import ConfigError, ParseError, csv_rows, read_json
from .events import EventRecord, EventStore

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
    payload = read_json(path)
    try:
        doi = frozenset(parse_bnf(code) for code in payload["doi_items"])
        hoi = parse_read(payload["hoi_code"])
        window = tuple(payload.get("window", DEFAULT_WINDOW))
        name = payload.get("name", "")
    except (KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"bad signal spec: {exc}", source=path) from None
    if len(window) != 2 or not all(type(v) is int for v in window):
        raise ParseError(f"window must be two integer days: {window}", source=path)
    return SignalSpec(doi=doi, hoi=hoi, window=window, name=name)  # type: ignore[arg-type]


def hoi_matches(record: EventRecord, hoi_query: ReadCode) -> bool:
    """True when a diagnosis record equals the query or descends from it."""
    return record.code_type == "READ" and _descends(parse_read(record.code), hoi_query)


def _descends(code: ReadCode, hoi_query: ReadCode) -> bool:
    return read_truncate(code, read_level(hoi_query)) == hoi_query


def doi_matches(code: BnfCode, doi: frozenset[BnfCode]) -> bool:
    """True when the drug code falls under any family entry."""
    return any(bnf_truncate(code, bnf_level(entry)) == entry for entry in doi)


def _code_mask(store: EventStore, keep) -> np.ndarray:
    """Per code id of the store's code table, `keep(parsed code)`."""
    table = store.code_table
    return np.fromiter((keep(parsed) for parsed, _ in table.values()), bool, len(table))


def _family_mask(store: EventStore, doi: frozenset[BnfCode]) -> np.ndarray:
    """Per code id: a drug code in the family."""
    return _code_mask(store, lambda c: isinstance(c, BnfCode) and doi_matches(c, doi))


def _outcome_mask(store: EventStore, hoi_query: ReadCode) -> np.ndarray:
    """Per code id: a diagnosis code that equals the query or descends from it."""
    return _code_mask(store, lambda c: isinstance(c, ReadCode) and _descends(c, hoi_query))


# No two day numbers are further apart than this, so a window is cut to it.
_MAX_GAP = dt.date.max.toordinal()


def _window(spec: SignalSpec) -> tuple[int, int]:
    start, end = spec.window
    return min(start, _MAX_GAP + 1), min(end, _MAX_GAP)


def first_doi_date(store: EventStore, patient_id: str, doi: frozenset[BnfCode]) -> dt.date | None:
    """Earliest retained prescription of the drug family, if any."""
    rows = store.rows(patient_id)
    columns = store.columns
    hits = np.flatnonzero(_family_mask(store, doi)[columns.code[rows]])
    return dt.date.fromordinal(int(columns.day[rows.start + hits[0]])) if hits.size else None


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
    # Rows are ordered by (patient, day), and so are these keys.
    key = (columns.patient.astype(np.int64) << 32) | columns.day
    outcome = key[_outcome_mask(store, spec.hoi)[columns.code]]
    family = _family_mask(store, spec.doi)[columns.code]
    drug, item = key[family], columns.codes.item_id[columns.code[family]]
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
    patient, day = columns.patient, columns.day.astype(np.int64)
    family = np.flatnonzero(_family_mask(store, spec.doi)[columns.code])
    first = family[_group_starts(patient[family])]  # each exposed patient's first prescription
    doi_day = np.full(len(store.patients), _MAX_GAP * 3, dtype=np.int64)  # beyond every window
    doi_day[patient[first]] = day[first]
    outcome = np.flatnonzero(_outcome_mask(store, spec.hoi)[columns.code])
    gap = day[outcome] - doi_day[patient[outcome]]
    hit = outcome[(gap >= start) & (gap <= end)]
    hit = hit[_group_starts(patient[hit])]  # each patient's earliest outcome in the window
    pids = list(store.patients)
    instances = [
        SignalInstance(pids[k], dt.date.fromordinal(d0), dt.date.fromordinal(d1))
        for k, d0, d1 in zip(
            patient[hit].tolist(), doi_day[patient[hit]].tolist(), day[hit].tolist()
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
    columns = store.columns
    exposed = columns.patient[_family_mask(store, doi)[columns.code]]
    return len(_group_starts(exposed))


_INSTANCES_HEADER = ["patient_id", "doi_date", "hoi_date"]


def write_instances_csv(instances: Iterable[SignalInstance], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_INSTANCES_HEADER)
        for inst in instances:
            writer.writerow([inst.patient_id, inst.doi_date.isoformat(), inst.hoi_date.isoformat()])


def read_instances_csv(path: str) -> list[SignalInstance]:
    instances = []
    for lineno, (pid, doi_date, hoi_date) in csv_rows(path, _INSTANCES_HEADER):
        try:
            instances.append(
                SignalInstance(pid, dt.date.fromisoformat(doi_date), dt.date.fromisoformat(hoi_date))
            )
        except ValueError as exc:
            raise ParseError(str(exc), source=path, line=lineno) from None
    return instances
