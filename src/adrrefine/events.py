"""Patient demographics and date-stamped event ingestion.

The store is immutable after construction. Prescription exclusion rules
(early-registration and end-of-database windows) produce a new store;
they exist because re-registered patients get old conditions re-entered
with fresh dates, and prescriptions near the extraction date cannot have
complete follow-up. Diagnosis records are never excluded.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, TextIO

from .codes import BnfCode, Item, ReadCode, code_item, parse_code
from .errors import DomainError, ParseError

DEFAULT_EXCLUSION_MONTHS = 12
DEFAULT_END_BUFFER_DAYS = 30
DEFAULT_MIN_ACTIVE_MONTHS = 24


@dataclass(frozen=True, slots=True)
class PatientInfo:
    patient_id: str
    gender: str
    year_of_birth: int
    registration_date: dt.date


@dataclass(frozen=True, slots=True)
class EventRecord:
    patient_id: str
    date: dt.date
    code_type: str  # READ or BNF
    code: str


CodeTable = dict[tuple[str, str], tuple[ReadCode | BnfCode, Item]]


def _add_code(table: CodeTable, code_type: str, code: str) -> None:
    key = (code_type, code)
    if key not in table:
        parsed = parse_code(code_type, code)
        table[key] = (parsed, code_item(parsed))


@dataclass(frozen=True)
class EventStore:
    patients: dict[str, PatientInfo]
    events: dict[str, tuple[EventRecord, ...]]  # per patient, date-ordered
    db_end_date: dt.date | None = None

    @cached_property
    def code_table(self) -> CodeTable:
        """Each distinct (code_type, code) of the store, parsed once, mapped
        to its parsed code and its mining item. Built on first use; raises
        ParseError if a record's code is malformed."""
        table: CodeTable = {}
        for ev in self.iter_events():
            _add_code(table, ev.code_type, ev.code)
        return table

    @property
    def patient_count(self) -> int:
        return len(self.patients)

    @property
    def event_count(self) -> int:
        return sum(len(evs) for evs in self.events.values())

    def patient_events(self, patient_id: str) -> tuple[EventRecord, ...]:
        if patient_id not in self.patients:
            raise DomainError(f"unknown patient: {patient_id}")
        return self.events.get(patient_id, ())

    def iter_events(self) -> Iterator[EventRecord]:
        for pid in self.patients:
            yield from self.events.get(pid, ())


def add_months(date: dt.date, months: int) -> dt.date:
    """Calendar-month shift; the day clamps to the target month's length."""
    total = date.year * 12 + (date.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    day = min(date.day, calendar.monthrange(year, month)[1])
    return dt.date(year, month, day)


def months_between(start: dt.date, end: dt.date) -> int:
    """Whole calendar months from start to end (floor); 0 if end < start."""
    if end < start:
        return 0
    n = (end.year - start.year) * 12 + (end.month - start.month)
    while n > 0 and add_months(start, n) > end:
        n -= 1
    return n


def _read_patients(fh: TextIO, source: str) -> dict[str, PatientInfo]:
    reader = csv.reader(fh)
    header = next(reader, None)
    expected = ["patient_id", "gender", "year_of_birth", "registration_date"]
    if header != expected:
        raise ParseError(f"expected header {','.join(expected)}", source=source, line=1)
    patients: dict[str, PatientInfo] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", source=source, line=lineno)
        pid, gender, yob, reg = row
        if pid in patients:
            raise ParseError(f"duplicate patient_id {pid!r}", source=source, line=lineno)
        if gender not in ("M", "F"):
            raise ParseError(f"gender must be M or F: {gender!r}", source=source, line=lineno)
        try:
            patients[pid] = PatientInfo(pid, gender, int(yob), dt.date.fromisoformat(reg))
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), source=source, line=lineno) from None
    return patients


def _read_events(
    fh: TextIO, source: str, patients: dict[str, PatientInfo], table: CodeTable
) -> dict[str, list[EventRecord]]:
    reader = csv.reader(fh)
    header = next(reader, None)
    expected = ["patient_id", "date", "code_type", "code"]
    if header != expected:
        raise ParseError(f"expected header {','.join(expected)}", source=source, line=1)
    events: dict[str, list[EventRecord]] = {pid: [] for pid in patients}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", source=source, line=lineno)
        pid, date_text, code_type, code = row
        patient = patients.get(pid)
        if patient is None:
            raise ParseError(f"unknown patient_id {pid!r}", source=source, line=lineno)
        try:  # validate codes eagerly so bad rows carry a line number
            date = dt.date.fromisoformat(date_text)
            _add_code(table, code_type, code)
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), source=source, line=lineno) from None
        if date < patient.registration_date:
            raise ParseError(
                f"event dated {date} before registration {patient.registration_date}",
                source=source,
                line=lineno,
            )
        events[pid].append(EventRecord(pid, date, code_type, code))
    return events


def load(
    patients_file: str,
    events_file: str,
    db_end_date: dt.date | None = None,
) -> EventStore:
    """Ingest patients.csv and events.csv into an EventStore.

    Rows are streamed; only the parsed store is held in memory. Events
    are sorted per patient by date, ties keeping file order. The end of
    the database defaults to the latest event date unless overridden.
    """
    with open(patients_file, newline="") as fh:
        patients = _read_patients(fh, patients_file)
    table: CodeTable = {}
    with open(events_file, newline="") as fh:
        events = _read_events(fh, events_file, patients, table)
    max_date: dt.date | None = None
    for evs in events.values():
        evs.sort(key=lambda e: e.date)  # stable: ingestion order preserved on ties
        if evs:
            last = evs[-1].date
            if max_date is None or last > max_date:
                max_date = last
    end = db_end_date if db_end_date is not None else max_date
    store = EventStore(
        patients=patients,
        events={pid: tuple(evs) for pid, evs in events.items()},
        db_end_date=end,
    )
    store.__dict__["code_table"] = table  # fill the cached property: rows were validated into it
    return store


def apply_prescription_exclusions(
    store: EventStore,
    exclusion_months: int = DEFAULT_EXCLUSION_MONTHS,
    end_buffer_days: int = DEFAULT_END_BUFFER_DAYS,
) -> EventStore:
    """Drop prescription (BNF) events in the two exclusion windows.

    A prescription is removed if dated within `exclusion_months` calendar
    months of the patient's registration (inclusive of the boundary) or
    within `end_buffer_days` days of the database end date. Diagnosis
    (READ) events always pass through; the filter is idempotent.
    """
    end = store.db_end_date
    filtered: dict[str, tuple[EventRecord, ...]] = {}
    for pid, evs in store.events.items():
        reg_cutoff = add_months(store.patients[pid].registration_date, exclusion_months)
        kept = []
        for ev in evs:
            if ev.code_type == "BNF":
                if ev.date <= reg_cutoff:
                    continue
                if end is not None and (end - ev.date).days < end_buffer_days:
                    continue
            kept.append(ev)
        filtered[pid] = tuple(kept)
    return EventStore(patients=store.patients, events=filtered, db_end_date=end)


def active_months(store: EventStore, patient_id: str) -> int:
    """Whole months between a patient's first and last retained events."""
    evs = store.patient_events(patient_id)
    if not evs:
        return 0
    return months_between(evs[0].date, evs[-1].date)


def eligible_patients(
    store: EventStore, min_active_months: int = DEFAULT_MIN_ACTIVE_MONTHS
) -> set[str]:
    """Patients active for at least `min_active_months` whole months."""
    return {
        pid for pid in store.patients if active_months(store, pid) >= min_active_months
    }
