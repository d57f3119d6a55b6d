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
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .codes import BnfCode, Item, ReadCode, code_item, parse_code
from .errors import (
    INPUT_FAULTS, ConfigError, CsvBlock, DomainError, column_values, csv_columns,
    raise_first_fault,
)

DEFAULT_EXCLUSION_MONTHS = 12
DEFAULT_END_BUFFER_DAYS = 30
DEFAULT_MIN_ACTIVE_MONTHS = 24

# Day number of 1970-01-01, numpy's datetime64 origin.
_EPOCH_DAY = dt.date(1970, 1, 1).toordinal()
# A shift this long takes any date past 9999-12-31, as every longer one does.
_MAX_SHIFT_MONTHS = 12 * 9999


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

    @cached_property
    def key(self) -> np.ndarray:
        """`(patient ordinal << 32) | day` per row, ascending as the rows are."""
        return _frozen((self.patient.astype(np.int64) << 32) | self.day)

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


# Patient ordinal, day number and code id per row, in input order, and the code table.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, CodeTable]


def _store(
    patients: dict[str, PatientInfo], read: Callable[[dict[str, int], np.ndarray], _Rows],
    db_end_date: dt.date | None,
) -> EventStore:
    """The store of the rows `read(ordinal, registered)` gives, from each
    patient's ordinal and registration day number. The end of the
    database defaults to the latest event day."""
    ordinal, registered = _patient_index(patients)
    patient, day, code, codes = read(ordinal, registered)
    if db_end_date is None and len(day):
        db_end_date = dt.date.fromordinal(int(day.max()))
    columns = _columns(ordinal, registered, patient, day, code, codes)
    return EventStore._from_columns(patients, columns, db_end_date)


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
    `EventRecord`s, each filed under its own `patient_id`. They are read
    as `load` reads events.csv rows, when the store is built: a record
    that `load` would reject raises its ParseError, numbered by its
    1-based position in the dict's tuples (`records:2: ...`), and
    `db_end_date` defaults to the latest event day. `events` is a
    date-ordered view of the columns.
    """

    def __init__(
        self,
        patients: dict[str, PatientInfo],
        events: dict[str, tuple[EventRecord, ...]],
        db_end_date: dt.date | None = None,
    ):
        read = partial(_read_events, _record_blocks(events), patients)
        store = _store(patients, read, db_end_date)
        self.patients, self.columns, self.db_end_date = patients, store.columns, store.db_end_date

    @classmethod
    def _from_columns(
        cls, patients: dict[str, PatientInfo], columns: EventColumns, db_end_date: dt.date | None
    ) -> EventStore:
        store = cls.__new__(cls)
        store.patients, store.columns, store.db_end_date = patients, columns, db_end_date
        return store

    @cached_property
    def events(self) -> dict[str, tuple[EventRecord, ...]]:
        """Per patient, its events as date-ordered records."""
        return _records(self.patients, self.columns)

    @property
    def code_table(self) -> CodeTable:
        return self.columns.codes

    @property
    def patient_count(self) -> int:
        return len(self.patients)

    @property
    def event_count(self) -> int:
        return len(self.columns.code)

    def patient_events(self, patient_id: str) -> tuple[EventRecord, ...]:
        if patient_id not in self.patients:
            raise DomainError(f"unknown patient: {patient_id}")
        return self.events[patient_id]

    def iter_events(self) -> Iterator[EventRecord]:
        for evs in self.events.values():
            yield from evs

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
    """Patients in file order. Each distinct year and date string is
    converted once; a malformed row raises its ParseError."""
    patients: dict[str, PatientInfo] = {}
    year_of: dict[str, int] = {}
    date_of: dict[str, dt.date] = {}
    for block in csv_columns(path, _PATIENTS_HEADER):
        try:
            pids, genders, years, dates = block.columns  # None (a TypeError) on a bad field count
            if (
                not {"M", "F"}.issuperset(genders)
                or len(set(pids)) < len(pids)
                or not patients.keys().isdisjoint(pids)
            ):
                raise ValueError("a malformed row")
            years = column_values(year_of, years, int)
            dates = column_values(date_of, dates, dt.date.fromisoformat)
        except INPUT_FAULTS:
            raise_first_fault(block.rows(), partial(_check_patient, set(patients)), path)
        patients.update(zip(pids, map(PatientInfo, pids, genders, years, dates)))
    return patients


def _check_patient(seen: set[str], row: list[str]) -> None:
    """Check one patients.csv row, after the patient ids `seen` before it,
    and add its id to them."""
    pid, gender, yob, reg = row
    if pid in seen:
        raise ValueError(f"duplicate patient_id {pid!r}")
    if gender not in ("M", "F"):
        raise ValueError(f"gender must be M or F: {gender!r}")
    int(yob), dt.date.fromisoformat(reg)
    seen.add(pid)


def _read_events(
    blocks: Iterable[CsvBlock],
    patients: dict[str, PatientInfo],
    ordinal: dict[str, int],
    registered: np.ndarray,
) -> _Rows:
    """The rows of events.csv `blocks`, in order. Each distinct patient
    id, date string and (code_type, code) is checked once; a malformed
    row raises its ParseError."""
    day_of: dict[str, int] = {}
    texts: list[str] = []  # each distinct code_type and code string
    text_of: dict[str, int] = {}  # its index in `texts`
    code_of: dict[int, int] = {}  # code id by (code_type index << 32 | code index)
    entries: dict = {}

    def add_day(text: str) -> int:
        return dt.date.fromisoformat(text).toordinal()

    def add_text(text: str) -> int:
        texts.append(text)
        return len(texts) - 1

    def add_code(pair: int) -> int:
        key = (texts[pair >> 32], texts[pair & 0xFFFFFFFF])
        entries[key] = _parse_entry(key)
        return len(entries) - 1

    parts = []
    for block in blocks:
        try:
            pids, dates, types, codes = block.columns  # None (a TypeError) on a bad field count
            patient = np.array(column_values(ordinal, pids, ordinal.__getitem__), np.int32)
            day = np.array(column_values(day_of, dates, add_day), np.int32)
            pair = np.array(column_values(text_of, types, add_text), np.int64) << 32
            pair |= np.array(column_values(text_of, codes, add_text), np.int64)
            code = np.array(column_values(code_of, pair.tolist(), add_code), np.int32)
            if (day < registered[patient]).any():
                raise ValueError("an event before registration")
        except INPUT_FAULTS:
            raise_first_fault(block.rows(), partial(_check_event, patients), block.path)
        parts.append((patient, day, code))
    if not parts:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, empty, CodeTable(entries)
    patient, day, code = (np.concatenate(column) for column in zip(*parts))
    return patient, day, code, CodeTable(entries)


def _check_event(patients: dict[str, PatientInfo], row: list[str]) -> None:
    """Check one events.csv row against the `patients`."""
    pid, date_text, code_type, code = row
    patient = patients.get(pid)
    if patient is None:
        raise ValueError(f"unknown patient_id {pid!r}")
    date = dt.date.fromisoformat(date_text)
    parse_code(code_type, code)
    if date < patient.registration_date:
        raise ValueError(f"event dated {date} before registration {patient.registration_date}")


def _record_blocks(events: dict[str, tuple[EventRecord, ...]]) -> list[CsvBlock]:
    """The records as the events.csv rows they would be, in one block
    whose lines are their 1-based positions under the name `records`."""
    records = [ev for evs in events.values() for ev in evs]
    rows = [[ev.patient_id, str(ev.date), ev.code_type, ev.code] for ev in records]
    if not rows:
        return []
    return [CsvBlock("records", 1, len(_EVENTS_HEADER), rows, [list(c) for c in zip(*rows)])]


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
    read = partial(_read_events, csv_columns(events_file, _EVENTS_HEADER), patients)
    return _store(patients, read, db_end_date)


def apply_prescription_exclusions(
    store: EventStore,
    exclusion_months: int = DEFAULT_EXCLUSION_MONTHS,
    end_buffer_days: int = DEFAULT_END_BUFFER_DAYS,
) -> EventStore:
    """Drop prescription (BNF) events in the two exclusion windows.

    A prescription is removed if dated within `exclusion_months` calendar
    months of the patient's registration (inclusive of the boundary) or
    within `end_buffer_days` days of the database end date. Diagnosis
    (READ) events always pass through; the filter is idempotent. A
    negative window is a ConfigError.
    """
    windows = {"exclusion_months": exclusion_months, "end_buffer_days": end_buffer_days}
    for name, value in windows.items():
        if value < 0:
            raise ConfigError(f"{name} must be >= 0: {value}")
    columns = store.columns
    end = store.db_end_date
    cutoff = _add_months_days(columns.registered, min(exclusion_months, _MAX_SHIFT_MONTHS))
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
    if patient_id not in store.patients:
        raise DomainError(f"unknown patient: {patient_id}")
    return int(_active_months(store)[store.columns.ordinal[patient_id]])


def eligible_patients(
    store: EventStore, min_active_months: int = DEFAULT_MIN_ACTIVE_MONTHS
) -> set[str]:
    """Patients active for at least `min_active_months` whole months."""
    eligible = (_active_months(store) >= min_active_months).tolist()
    return {pid for pid, ok in zip(store.patients, eligible) if ok}
