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
import json
from dataclasses import dataclass
from typing import Iterable

from .codes import (
    BnfCode,
    Item,
    ReadCode,
    bnf_level,
    bnf_truncate,
    parse_bnf,
    parse_read,
    read_level,
    read_truncate,
)
from .errors import ConfigError, ParseError
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
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), source=path) from None
    try:
        doi = frozenset(parse_bnf(code) for code in payload["doi_items"])
        hoi = parse_read(payload["hoi_code"])
        window = tuple(payload.get("window", DEFAULT_WINDOW))
        name = payload.get("name", "")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad signal spec: {exc}", source=path) from None
    if len(window) != 2 or not all(isinstance(v, int) for v in window):
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


def _family(store: EventStore, doi: frozenset[BnfCode]) -> dict[str, Item]:
    """The store's drug codes in the family, each with its level-2 item.

    This and `_outcome_codes` key codes by string alone: a string that
    parses as one code type cannot parse as the other (a diagnosis code has
    exactly 5 characters, a drug code 4 dotted parts, so at least 7)."""
    return {
        code: item
        for (code_type, code), (parsed, item) in store.code_table.items()
        if code_type == "BNF" and doi_matches(parsed, doi)
    }


def _outcome_codes(store: EventStore, hoi_query: ReadCode) -> set[str]:
    """The store's diagnosis codes that equal the query or descend from it."""
    return {
        code
        for (code_type, code), (parsed, _) in store.code_table.items()
        if code_type == "READ" and _descends(parsed, hoi_query)
    }


def first_doi_date(store: EventStore, patient_id: str, doi: frozenset[BnfCode]) -> dt.date | None:
    """Earliest retained prescription of the drug family, if any."""
    events, family = store.patient_events(patient_id), _family(store, doi)
    return next((ev.date for ev in events if ev.code in family), None)


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
    start, end = spec.window
    family = _family(store, spec.doi)
    outcome = _outcome_codes(store, spec.hoi)
    after = before = 0
    for pid in store.patients:
        events = store.patient_events(pid)
        hoi_dates = [ev.date for ev in events if ev.code in outcome]
        seen: set[tuple[dt.date, Item]] = set()
        for ev in events:
            item = family.get(ev.code)
            if item is None:
                continue
            key = (ev.date, item)
            if key in seen:
                continue
            seen.add(key)
            if any(start <= (d - ev.date).days <= end for d in hoi_dates):
                after += 1
            if any(start <= (ev.date - d).days <= end for d in hoi_dates):
                before += 1
    return AbResult(after, before, after / max(before, 1))


def find_instances(spec: SignalSpec, store: EventStore) -> list[SignalInstance]:
    """One instance per patient whose first prescription is followed by a
    matching outcome inside the window; the earliest such outcome wins."""
    start, end = spec.window
    family = _family(store, spec.doi)
    outcome = _outcome_codes(store, spec.hoi)
    instances = []
    for pid in store.patients:
        events = store.patient_events(pid)
        doi_date = next((ev.date for ev in events if ev.code in family), None)
        if doi_date is None:
            continue
        for ev in events:
            gap = (ev.date - doi_date).days
            if gap > end:
                break
            if gap >= start and ev.code in outcome:
                instances.append(SignalInstance(pid, doi_date, ev.date))
                break
    instances.sort(key=lambda inst: inst.patient_id)
    return instances


def exposure_count(doi: frozenset[BnfCode], store: EventStore) -> int:
    """Number of patients with at least one retained family prescription."""
    family = _family(store, doi)
    return sum(
        1 for pid in store.patients if any(ev.code in family for ev in store.patient_events(pid))
    )


def write_instances_csv(instances: Iterable[SignalInstance], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "doi_date", "hoi_date"])
        for inst in instances:
            writer.writerow([inst.patient_id, inst.doi_date.isoformat(), inst.hoi_date.isoformat()])


def read_instances_csv(path: str) -> list[SignalInstance]:
    instances = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["patient_id", "doi_date", "hoi_date"]:
            raise ParseError("expected header patient_id,doi_date,hoi_date", source=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", source=path, line=lineno)
            try:
                instances.append(
                    SignalInstance(
                        row[0], dt.date.fromisoformat(row[1]), dt.date.fromisoformat(row[2])
                    )
                )
            except ValueError as exc:
                raise ParseError(str(exc), source=path, line=lineno) from None
    return instances
