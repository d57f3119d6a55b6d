"""Patient demographics and date-stamped event ingestion.

The store is immutable after construction and holds its patients and
events once, as columns. Patients are in store order: their ids (indexed
by one id -> ordinal dict), a uint8 gender code into `GENDERS`, the
years of birth as the exact ints read, and an int32 registration day
number (`date.toordinal()`). Events are per-patient row offsets, an
int32 day number and an int32 code id into the store's code table. A
patient's rows are date-ordered, same-day rows in input order. The code
table numbers each distinct (code_type, code) pair, in first-seen order,
and each mining item, the gender items included, once. Every
stage downstream works on these columns with array operations;
`PatientInfo`s and `EventRecord`s are views built on request.

Prescription exclusion rules (early-registration and end-of-database
windows) produce a new store that shares the patients and the code
table; they exist because re-registered patients get old conditions
re-entered with fresh dates, and prescriptions near the extraction date
cannot have complete follow-up. Diagnosis records are never excluded.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, NoReturn

import numpy as np

from .codes import GENDERS, BnfCode, Item, ReadCode, code_item, gender_item, parse_code
from .errors import (
    CsvBlock, DomainError, check_setting, checked, column_values, converted, csv_columns,
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
    the table. `mining_items` holds the codes' distinct items and the
    gender items, in token order. Per code id, `drug` says whether it is
    a prescription code and `item_id` indexes `mining_items`; per gender
    code (into `GENDERS`), `gender_id` does."""

    def __init__(self, entries: dict[tuple[str, str], tuple[ReadCode | BnfCode, Item]]):
        super().__init__(entries)
        genders = [gender_item(g) for g in GENDERS]
        self.mining_items: tuple[Item, ...] = tuple(
            sorted({*(item for _, item in self.values()), *genders}, key=lambda it: it.token)
        )
        ids = {item: k for k, item in enumerate(self.mining_items)}
        self.drug = _frozen(np.array([isinstance(p, BnfCode) for p, _ in self.values()], bool))
        self.item_id = _frozen(np.array([ids[it] for _, it in self.values()], np.int32))
        self.gender_id = _frozen(np.array([ids[it] for it in genders], np.int32))


def _parse_entry(key: tuple[str, str]) -> tuple[ReadCode | BnfCode, Item]:
    parsed = parse_code(*key)
    return parsed, code_item(parsed)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EventColumns:
    """A store's patients and events as columns. Patient k (in store
    order, `ordinal[pids[k]] == k`) has a gender code, year of birth and
    registration day, and rows `offsets[k]:offsets[k + 1]`, date-ordered."""

    offsets: np.ndarray  # int64, one more than the patients
    day: np.ndarray  # int32 day number per row
    code: np.ndarray  # int32 code id per row, into `codes`
    codes: CodeTable
    pids: tuple[str, ...]
    ordinal: dict[str, int]
    gender: np.ndarray  # uint8 per patient, into `GENDERS`
    year_of_birth: tuple[int, ...]
    registered: np.ndarray  # int32 registration day number per patient

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
        counts = np.bincount(self.patient[keep], minlength=len(self.pids))
        offsets = np.zeros(len(self.offsets), dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        day, code = _frozen(self.day[keep]), _frozen(self.code[keep])
        return replace(self, offsets=_frozen(offsets), day=day, code=code)


# A store's patient columns in `EventColumns`' field order (ids, the id -> ordinal
# dict, gender codes, years of birth, registration days), the arrays read-only.
_Patients = tuple[tuple[str, ...], dict[str, int], np.ndarray, tuple[int, ...], np.ndarray]
# Patient ordinal, day number and code id per row, in input order, and the code table.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, CodeTable]


def _store(patients: _Patients, rows: _Rows, db_end_date: dt.date | None) -> EventStore:
    """The store of the `rows`, grouped by patient ordinal, then sorted by
    day, same-day rows keeping their input order. The end of the database
    defaults to the latest event day."""
    patient, day, code, codes = rows
    if db_end_date is None and len(day):
        db_end_date = dt.date.fromordinal(int(day.max()))
    order = np.argsort((patient.astype(np.int64) << 32) | day, kind="stable")
    offsets = np.zeros(len(patients[0]) + 1, dtype=np.int64)
    np.cumsum(np.bincount(patient, minlength=len(offsets) - 1), out=offsets[1:])
    day, code = (_frozen(column[order].astype(np.int32)) for column in (day, code))
    columns = EventColumns(_frozen(offsets), day, code, codes, *patients)
    return EventStore._from_columns(columns, db_end_date)


def _records(columns: EventColumns) -> dict[str, tuple[EventRecord, ...]]:
    keys = list(columns.codes)
    dates = {d: dt.date.fromordinal(d) for d in np.unique(columns.day).tolist()}
    day, code, offsets = columns.day.tolist(), columns.code.tolist(), columns.offsets.tolist()
    return {
        pid: tuple(
            EventRecord(pid, dates[day[r]], *keys[code[r]])
            for r in range(offsets[k], offsets[k + 1])
        )
        for k, pid in enumerate(columns.pids)
    }


class EventStore:
    """Patients (in store order) and their events, held as `columns`.

    `EventStore(patients, events, db_end_date)` builds a store from
    `PatientInfo` and `EventRecord` records, each filed under its own
    `patient_id` and read as `load` reads patients.csv and events.csv
    rows: a record `load` would reject as a row (a gender, year or date
    that fails, a repeated patient_id, an unknown patient, an event
    before registration, a bad code), or one that cannot be written as a
    row (an int too long to write as text), raises its ParseError at its
    1-based position among the patients or the events (`records:2: ...`),
    and `db_end_date` defaults to the latest event day. `patients` and
    `events` are views of the columns, built on first read."""

    def __init__(
        self,
        patients: dict[str, PatientInfo],
        events: dict[str, tuple[EventRecord, ...]],
        db_end_date: dt.date | None = None,
    ):
        cohort = _read_patients(_record_blocks(patients.values(), _patient_row))
        records = (ev for evs in events.values() for ev in evs)
        rows = _read_events(_record_blocks(records, _event_row), cohort)
        store = _store(cohort, rows, db_end_date)
        self.columns, self.db_end_date = store.columns, store.db_end_date

    @classmethod
    def _from_columns(cls, columns: EventColumns, db_end_date: dt.date | None) -> EventStore:
        store = cls.__new__(cls)
        store.columns, store.db_end_date = columns, db_end_date
        return store

    @cached_property
    def patients(self) -> dict[str, PatientInfo]:
        """Per patient id, in store order, its demographics."""
        c = self.columns
        genders = map(GENDERS.__getitem__, c.gender.tolist())
        dates = map(dt.date.fromordinal, c.registered.tolist())
        return dict(zip(c.pids, map(PatientInfo, c.pids, genders, c.year_of_birth, dates)))

    @cached_property
    def events(self) -> dict[str, tuple[EventRecord, ...]]:
        """Per patient, its events as date-ordered records."""
        return _records(self.columns)

    @property
    def code_table(self) -> CodeTable:
        return self.columns.codes

    @property
    def patient_count(self) -> int:
        return len(self.columns.pids)

    @property
    def event_count(self) -> int:
        return len(self.columns.code)

    def patient_events(self, patient_id: str) -> tuple[EventRecord, ...]:
        if patient_id not in self.columns.ordinal:
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


def _day_number(text: str) -> int:
    return dt.date.fromisoformat(text).toordinal()


def _unknown_gender(gender: str) -> NoReturn:
    raise ValueError(f"gender must be M or F: {gender!r}")


def _unknown_patient(pid: str) -> NoReturn:
    raise ValueError(f"unknown patient_id {pid!r}")


def _read_patients(blocks: Iterable[CsvBlock]) -> _Patients:
    """The patient columns of patients.csv `blocks`, in row order. Each
    distinct year and date string is converted once; a malformed row
    raises its ParseError."""
    ordinal: dict[str, int] = {}
    gender_of = {gender: k for k, gender in enumerate(GENDERS)}
    year_of: dict[str, int] = {}
    day_of: dict[str, int] = {}

    def convert(columns: list) -> tuple[list, list, list]:
        """A block's gender codes, years and registration days. Its ids
        join `ordinal` once the whole block has converted."""
        pids, gender, year, date = columns  # None (a TypeError) on a bad field count
        if len(fresh := dict.fromkeys(pids)) < len(pids) or not ordinal.keys().isdisjoint(fresh):
            again = next(p for k, p in enumerate(pids) if p in ordinal or p in pids[:k])
            raise ValueError(f"duplicate patient_id {again!r}")
        gender = column_values(gender_of, gender, _unknown_gender)
        year, date = column_values(year_of, year, int), column_values(day_of, date, _day_number)
        ordinal.update(zip(pids, range(len(ordinal), len(ordinal) + len(pids))))
        return gender, year, date

    genders, years, days = [], [], []  # per patient, in row order
    for block in blocks:
        gender, year, date = converted(convert, block.columns, block.row_columns(), block.path)
        genders += gender
        years += year
        days += date
    gender, registered = _frozen(np.array(genders, np.uint8)), _frozen(np.array(days, np.int32))
    return tuple(ordinal), ordinal, gender, tuple(years), registered


def _read_events(blocks: Iterable[CsvBlock], patients: _Patients) -> _Rows:
    """The rows of events.csv `blocks`, in order, for the `patients`. Each
    distinct patient id, date string and (code_type, code) is checked
    once; a malformed row raises its ParseError."""
    _, ordinal, _, _, registered = patients
    day_of: dict[str, int] = {}
    code_of: dict[tuple[str, str], int] = {}  # code id by (code_type, code)
    entries: dict = {}

    def add_code(key: tuple[str, str]) -> int:
        entries[key] = _parse_entry(key)
        return len(entries) - 1

    def convert(columns: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pids, dates, types, codes = columns  # None (a TypeError) on a bad field count
        patient = np.array(column_values(ordinal, pids, _unknown_patient), np.int32)
        day = np.array(column_values(day_of, dates, _day_number), np.int32)
        code = np.array(column_values(code_of, list(zip(types, codes)), add_code), np.int32)
        start = registered[patient]
        if len(early := np.flatnonzero(day < start)):
            date, registration = (dt.date.fromordinal(int(d[early[0]])) for d in (day, start))
            raise ValueError(f"event dated {date} before registration {registration}")
        return patient, day, code

    parts = [converted(convert, b.columns, b.row_columns(), b.path) for b in blocks]
    if not parts:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, empty, CodeTable(entries)
    patient, day, code = (np.concatenate(column) for column in zip(*parts))
    return patient, day, code, CodeTable(entries)


def _patient_row(p: PatientInfo) -> list:
    return [p.patient_id, p.gender, str(p.year_of_birth), str(p.registration_date)]


def _event_row(ev: EventRecord) -> list:
    return [ev.patient_id, str(ev.date), ev.code_type, ev.code]


def _record_blocks(records: Iterable, row: Callable) -> list[CsvBlock]:
    """Records turned into the CSV rows `row` makes of them, as one block
    whose lines are their 1-based positions under the name `records`; a
    record that cannot be written as a row raises its ParseError there."""
    rows = list(checked(enumerate(records, 1), row, "records"))
    columns = [list(c) for c in zip(*rows)]
    return [CsvBlock("records", 1, len(columns), rows, columns)] if rows else []


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
    patients = _read_patients(csv_columns(patients_file, _PATIENTS_HEADER))
    rows = _read_events(csv_columns(events_file, _EVENTS_HEADER), patients)
    return _store(patients, rows, db_end_date)


def apply_prescription_exclusions(
    store: EventStore,
    exclusion_months: int = DEFAULT_EXCLUSION_MONTHS,
    end_buffer_days: int = DEFAULT_END_BUFFER_DAYS,
) -> EventStore:
    """Drop prescription (BNF) events in the two exclusion windows.

    A prescription is removed if dated within `exclusion_months` calendar
    months of the patient's registration (inclusive of the boundary) or
    within `end_buffer_days` days of the database end date. Diagnosis
    (READ) events always pass through; the filter is idempotent. A window
    that is negative or not an integer is a ConfigError.
    """
    check_setting("exclusion_months", exclusion_months)
    check_setting("end_buffer_days", end_buffer_days)
    columns = store.columns
    end = store.db_end_date
    cutoff = _add_months_days(columns.registered, min(exclusion_months, _MAX_SHIFT_MONTHS))
    window = columns.day <= cutoff[columns.patient]
    if end is not None:
        window |= end.toordinal() - columns.day.astype(np.int64) < end_buffer_days
    keep = ~(columns.codes.drug[columns.code] & window)
    return EventStore._from_columns(columns.select(keep), end)


def _active_months(store: EventStore) -> np.ndarray:
    """Whole months between each patient's first and last retained events."""
    offsets, day = store.columns.offsets, store.columns.day
    active = np.zeros(len(offsets) - 1, dtype=np.int64)
    has = offsets[1:] > offsets[:-1]
    active[has] = _months_between_days(day[offsets[:-1][has]], day[offsets[1:][has] - 1])
    return active


def active_months(store: EventStore, patient_id: str) -> int:
    """Whole months between a patient's first and last retained events."""
    if patient_id not in store.columns.ordinal:
        raise DomainError(f"unknown patient: {patient_id}")
    return int(_active_months(store)[store.columns.ordinal[patient_id]])


def eligible_patients(
    store: EventStore, min_active_months: int = DEFAULT_MIN_ACTIVE_MONTHS
) -> set[str]:
    """Patients active for at least `min_active_months` whole months. A
    `min_active_months` that is negative or not an integer is a ConfigError."""
    check_setting("min_active_months", min_active_months)
    return set(compress(store.columns.pids, (_active_months(store) >= min_active_months).tolist()))
