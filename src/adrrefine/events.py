"""Patient demographics and date-stamped event ingestion.

The store is immutable after construction and holds its events as
columns: per-patient row offsets (patients in store order), an int32 day
number (`date.toordinal()`) and an int32 code id into the store's code
table. A patient's rows are date-ordered, same-day rows in input order.
Every stage downstream works on these columns with array operations;
`EventRecord`s are views built on request.

Prescription exclusion rules (early-registration and end-of-database
windows) produce a new store that shares the patients and the code
table; they exist because re-registered patients get old conditions
re-entered with fresh dates, and prescriptions near the extraction date
cannot have complete follow-up. Diagnosis records are never excluded.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .codes import BnfCode, Item, ReadCode, code_item, parse_code
from .errors import DomainError, ParseError, block_rows, csv_blocks, csv_rows

DEFAULT_EXCLUSION_MONTHS = 12
DEFAULT_END_BUFFER_DAYS = 30
DEFAULT_MIN_ACTIVE_MONTHS = 24

# Day number of 1970-01-01, numpy's datetime64 origin.
_EPOCH_DAY = dt.date(1970, 1, 1).toordinal()


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


class CodeTable(dict):
    """Each distinct (code_type, code) of a store, parsed once, mapped to
    its parsed code and its mining item. A code's id is its position in
    the table. Per code id, `drug` says whether it is a prescription code
    and `item_id` indexes `mining_items`, the table's distinct items in
    token order."""

    def __init__(self, entries: dict[tuple[str, str], tuple[ReadCode | BnfCode, Item]]):
        super().__init__(entries)
        self.mining_items: tuple[Item, ...] = tuple(
            sorted({item for _, item in self.values()}, key=lambda it: it.token)
        )
        ids = {item: k for k, item in enumerate(self.mining_items)}
        self.drug = _frozen(np.array([isinstance(p, BnfCode) for p, _ in self.values()], bool))
        self.item_id = _frozen(np.array([ids[it] for _, it in self.values()], np.int32))


def _parse_entry(key: tuple[str, str]) -> tuple[ReadCode | BnfCode, Item]:
    parsed = parse_code(*key)
    return parsed, code_item(parsed)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EventColumns:
    """A store's events as columns. Patient k (`ordinal[patient_id]`, in
    store order) has rows `offsets[k]:offsets[k + 1]`, date-ordered, and
    registered on day number `registered[k]`."""

    offsets: np.ndarray  # int64, one more than the patients
    day: np.ndarray  # int32 day number per row
    code: np.ndarray  # int32 code id per row, into `codes`
    codes: CodeTable
    ordinal: dict[str, int]
    registered: np.ndarray  # int32 per patient

    @cached_property
    def patient(self) -> np.ndarray:
        """The patient ordinal of each row."""
        sizes = np.diff(self.offsets)
        return _frozen(np.repeat(np.arange(len(sizes), dtype=np.int32), sizes))

    def select(self, keep: np.ndarray) -> EventColumns:
        """The rows where `keep` is True, with the same patients and codes."""
        counts = np.bincount(self.patient[keep], minlength=len(self.offsets) - 1)
        offsets = np.zeros(len(self.offsets), dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return EventColumns(
            _frozen(offsets), _frozen(self.day[keep]), _frozen(self.code[keep]),
            self.codes, self.ordinal, self.registered,
        )


def _columns(
    ordinal: dict[str, int],
    registered: np.ndarray,
    patient: np.ndarray,
    day: np.ndarray,
    code: np.ndarray,
    codes: CodeTable,
) -> EventColumns:
    """Columns from rows in input order: grouped by patient ordinal, then
    sorted by day, same-day rows keeping their input order."""
    order = np.argsort((patient.astype(np.int64) << 32) | day, kind="stable")
    offsets = np.zeros(len(registered) + 1, dtype=np.int64)
    np.cumsum(np.bincount(patient, minlength=len(registered)), out=offsets[1:])
    return EventColumns(
        _frozen(offsets),
        _frozen(day[order].astype(np.int32)),
        _frozen(code[order].astype(np.int32)),
        codes,
        ordinal,
        _frozen(registered),
    )


def _patient_index(patients: dict[str, PatientInfo]) -> tuple[dict[str, int], np.ndarray]:
    """Each patient's ordinal and registration day number, in store order."""
    days = (info.registration_date.toordinal() for info in patients.values())
    ordinal = {pid: k for k, pid in enumerate(patients)}
    return ordinal, np.fromiter(days, np.int32, len(patients))


def _columns_from_records(
    patients: dict[str, PatientInfo], events: dict[str, tuple[EventRecord, ...]]
) -> EventColumns:
    """Columns of a store built from records; raises ParseError at the
    first malformed code."""
    code_of: dict[tuple[str, str], int] = {}
    entries = {}
    sizes, days, codes = [], [], []
    for pid in patients:
        evs = events.get(pid, ())
        sizes.append(len(evs))
        for ev in evs:
            key = (ev.code_type, ev.code)
            cid = code_of.get(key)
            if cid is None:
                entries[key] = _parse_entry(key)
                cid = code_of[key] = len(code_of)
            codes.append(cid)
            days.append(ev.date.toordinal())
    patient = np.repeat(np.arange(len(patients), dtype=np.int64), sizes)
    days = np.array(days, dtype=np.int64)
    codes = np.array(codes, dtype=np.int32)
    return _columns(*_patient_index(patients), patient, days, codes, CodeTable(entries))


def _records(
    patients: dict[str, PatientInfo], columns: EventColumns
) -> dict[str, tuple[EventRecord, ...]]:
    keys = list(columns.codes)
    dates = {d: dt.date.fromordinal(d) for d in np.unique(columns.day).tolist()}
    day, code, offsets = columns.day.tolist(), columns.code.tolist(), columns.offsets.tolist()
    return {
        pid: tuple(
            EventRecord(pid, dates[day[r]], *keys[code[r]])
            for r in range(offsets[k], offsets[k + 1])
        )
        for k, pid in enumerate(patients)
    }


class EventStore:
    """Patients (in store order) and their events.

    `EventStore(patients, events, db_end_date)` builds a store from
    per-patient, date-ordered tuples of `EventRecord`s; its columns, and
    with them its code table, are built on first use, so an invalid
    record raises ParseError then. `load` and the exclusions build stores
    from columns; their `events` is a view built on first use.
    """

    def __init__(
        self,
        patients: dict[str, PatientInfo],
        events: dict[str, tuple[EventRecord, ...]],
        db_end_date: dt.date | None = None,
    ):
        self.patients = patients
        self.events = events
        self.db_end_date = db_end_date

    @classmethod
    def _from_columns(
        cls, patients: dict[str, PatientInfo], columns: EventColumns, db_end_date: dt.date | None
    ) -> EventStore:
        store = cls.__new__(cls)
        store.patients = patients
        store.columns = columns
        store.db_end_date = db_end_date
        return store

    @cached_property
    def columns(self) -> EventColumns:
        return _columns_from_records(self.patients, self.events)

    @cached_property
    def events(self) -> dict[str, tuple[EventRecord, ...]]:
        """Per patient, its events as date-ordered records."""
        return _records(self.patients, self.columns)

    @property
    def code_table(self) -> CodeTable:
        return self.columns.codes

    def rows(self, patient_id: str) -> slice:
        """The slice of the event columns holding one patient's rows."""
        if patient_id not in self.patients:
            raise DomainError(f"unknown patient: {patient_id}")
        k = self.columns.ordinal[patient_id]
        offsets = self.columns.offsets
        return slice(int(offsets[k]), int(offsets[k + 1]))

    @property
    def patient_count(self) -> int:
        return len(self.patients)

    @property
    def event_count(self) -> int:
        events = vars(self).get("events")  # records, if given or already viewed
        if events is None:
            return len(self.columns.code)
        return sum(len(evs) for evs in events.values())

    def patient_events(self, patient_id: str) -> tuple[EventRecord, ...]:
        if patient_id not in self.patients:
            raise DomainError(f"unknown patient: {patient_id}")
        return self.events.get(patient_id, ())

    def iter_events(self) -> Iterator[EventRecord]:
        for pid in self.patients:
            yield from self.events.get(pid, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStore):
            return NotImplemented
        return (self.patients, self.db_end_date, self.events) == (
            other.patients, other.db_end_date, other.events
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventStore({self.patient_count} patients, db_end_date={self.db_end_date})"


# The calendar arithmetic, over arrays of day numbers; `add_months` and
# `months_between` are its one-date forms. numpy's datetime64 does only
# the calendar arithmetic here, on valid days; dates are parsed by
# `dt.date.fromisoformat` alone.


def _calendar(day: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Month (months since 1970-01) and 0-based day of month of each day number."""
    date = (day.astype(np.int64) - _EPOCH_DAY).astype("datetime64[D]")
    month = date.astype("datetime64[M]")
    return month.astype(np.int64), (date - month).astype(np.int64)


def _month_start(month: np.ndarray) -> np.ndarray:
    """Day number of the first day of each month (months since 1970-01)."""
    return month.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) + _EPOCH_DAY


def _add_months_days(day: np.ndarray, months: np.ndarray | int) -> np.ndarray:
    """`add_months` over day numbers."""
    month, day_of_month = _calendar(day)
    target = month + months
    start = _month_start(target)
    return start + np.minimum(day_of_month, _month_start(target + 1) - start - 1)


def _months_between_days(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """`months_between` over day numbers, for first <= last: the month
    difference, less one when the first day shifted by it passes the last."""
    n = _calendar(last)[0] - _calendar(first)[0]
    return n - (_add_months_days(first, n) > last)


def add_months(date: dt.date, months: int) -> dt.date:
    """Calendar-month shift; the day clamps to the target month's length."""
    return dt.date.fromordinal(int(_add_months_days(np.array([date.toordinal()]), months)[0]))


def months_between(start: dt.date, end: dt.date) -> int:
    """Whole calendar months from start to end (floor); 0 if end < start."""
    if end < start:
        return 0
    first, last = np.array([start.toordinal()]), np.array([end.toordinal()])
    return int(_months_between_days(first, last)[0])


_PATIENTS_HEADER = ["patient_id", "gender", "year_of_birth", "registration_date"]
_EVENTS_HEADER = ["patient_id", "date", "code_type", "code"]


def _read_patients(path: str) -> dict[str, PatientInfo]:
    patients: dict[str, PatientInfo] = {}
    for lineno, (pid, gender, yob, reg) in csv_rows(path, _PATIENTS_HEADER):
        if pid in patients:
            raise ParseError(f"duplicate patient_id {pid!r}", source=path, line=lineno)
        if gender not in ("M", "F"):
            raise ParseError(f"gender must be M or F: {gender!r}", source=path, line=lineno)
        try:
            patients[pid] = PatientInfo(pid, gender, int(yob), dt.date.fromisoformat(reg))
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), source=path, line=lineno) from None
    return patients


class _Fault(Exception):
    """Some row of a block of events.csv is malformed; which one is found
    by checking the block's rows one at a time."""


def _ids(known: dict, values: Sequence, add: Callable) -> np.ndarray:
    """The id of each value in `known`. A value not yet known is added
    first as `add(value)`, once per distinct value, in first-seen order."""
    try:
        return np.fromiter(map(known.__getitem__, values), np.int64, len(values))
    except KeyError:
        for value in dict.fromkeys(values):
            if value not in known:
                known[value] = add(value)
        return np.fromiter(map(known.__getitem__, values), np.int64, len(values))


def _read_events(
    path: str,
    patients: dict[str, PatientInfo],
    ordinal: dict[str, int],
    registered: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CodeTable]:
    """Per row, in file order: patient ordinal, day number and code id,
    plus the code table. Each distinct patient id, date string and code
    is checked once; a malformed row raises its ParseError."""
    day_of: dict[str, int] = {}
    code_of: dict[tuple[str, str], int] = {}
    entries: dict = {}

    def unknown_patient(pid: str) -> int:
        raise _Fault

    def add_day(text: str) -> int:
        try:
            return dt.date.fromisoformat(text).toordinal()
        except ValueError:
            raise _Fault from None

    def add_code(key: tuple[str, str]) -> int:
        try:
            entries[key] = _parse_entry(key)
        except ParseError:
            raise _Fault from None
        return len(entries) - 1

    blocks = []
    for first, block in csv_blocks(path, _EVENTS_HEADER):
        try:
            lengths = set(map(len, block))
            if lengths - {0, 4}:
                raise _Fault
            rows = [row for row in block if row] if 0 in lengths else block  # blank lines
            if not rows:
                continue
            pids, dates, types, codes = zip(*rows)
            patient = _ids(ordinal, pids, unknown_patient)
            day = _ids(day_of, dates, add_day)
            code = _ids(code_of, list(zip(types, codes)), add_code)
            if (day < registered[patient]).any():
                raise _Fault
        except _Fault:
            _raise_first_fault(path, first, block, patients)
        blocks.append((patient, day, code))
    if not blocks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, CodeTable(entries)
    patient, day, code = (np.concatenate(column) for column in zip(*blocks))
    return patient, day, code, CodeTable(entries)


def _raise_first_fault(
    path: str, first: int, block: list[list[str]], patients: dict[str, PatientInfo]
) -> None:
    """Check a block's rows one at a time and raise the first one's ParseError."""
    for lineno, (pid, date_text, code_type, code) in block_rows(path, first, block, 4):
        patient = patients.get(pid)
        if patient is None:
            raise ParseError(f"unknown patient_id {pid!r}", source=path, line=lineno)
        try:
            date = dt.date.fromisoformat(date_text)
            parse_code(code_type, code)
        except (ValueError, ParseError) as exc:
            raise ParseError(str(exc), source=path, line=lineno) from None
        if date < patient.registration_date:
            raise ParseError(
                f"event dated {date} before registration {patient.registration_date}",
                source=path,
                line=lineno,
            )
    raise AssertionError("a row failed in its block but not on its own")


def load(
    patients_file: str,
    events_file: str,
    db_end_date: dt.date | None = None,
) -> EventStore:
    """Ingest patients.csv and events.csv (UTF-8) into an EventStore.

    Rows are read into columns a block at a time. Events are sorted per
    patient by date, ties keeping file order. The end of the database
    defaults to the latest event date unless overridden.
    """
    patients = _read_patients(patients_file)
    ordinal, registered = _patient_index(patients)
    patient, day, code, codes = _read_events(events_file, patients, ordinal, registered)
    end = db_end_date
    if end is None and len(day):
        end = dt.date.fromordinal(int(day.max()))
    columns = _columns(ordinal, registered, patient, day, code, codes)
    return EventStore._from_columns(patients, columns, end)


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
    columns = store.columns
    end = store.db_end_date
    cutoff = _add_months_days(columns.registered, exclusion_months)
    window = columns.day <= cutoff[columns.patient]
    if end is not None:
        window |= end.toordinal() - columns.day.astype(np.int64) < end_buffer_days
    keep = ~(columns.codes.drug[columns.code] & window)
    return EventStore._from_columns(store.patients, columns.select(keep), end)


def _active_months(store: EventStore) -> np.ndarray:
    """Whole months between each patient's first and last retained events."""
    offsets, day = store.columns.offsets, store.columns.day
    active = np.zeros(len(offsets) - 1, dtype=np.int64)
    has = offsets[1:] > offsets[:-1]
    active[has] = _months_between_days(day[offsets[:-1][has]], day[offsets[1:][has] - 1])
    return active


def active_months(store: EventStore, patient_id: str) -> int:
    """Whole months between a patient's first and last retained events."""
    rows = store.rows(patient_id)
    if rows.start == rows.stop:
        return 0
    day = store.columns.day
    return int(_months_between_days(day[[rows.start]], day[[rows.stop - 1]])[0])


def eligible_patients(
    store: EventStore, min_active_months: int = DEFAULT_MIN_ACTIVE_MONTHS
) -> set[str]:
    """Patients active for at least `min_active_months` whole months."""
    eligible = (_active_months(store) >= min_active_months).tolist()
    return {pid for pid, ok in zip(store.patients, eligible) if ok}
