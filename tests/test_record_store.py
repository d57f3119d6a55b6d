"""A store built from `PatientInfo` and `EventRecord` records equals the
store `load` reads from the same rows written as CSV, and a bad record
fails as its row would."""

import datetime as dt
import sys

import pytest

from adrrefine.errors import ParseError
from adrrefine.events import (
    EventRecord,
    EventStore,
    PatientInfo,
    apply_prescription_exclusions,
    load,
)

from conftest import write_cohort

PATIENT_ROWS = ["p1,M,1950,2000-01-01", "p2,F,1960,2003-02-28", "p3,F,1971,2001-06-15"]
# p1's three rows are the end-of-database case: with no end date given,
# the end is the latest event day (2005-06-20), and the exclusions drop the
# prescription 19 days before it. p2's rows are out of date order, with a
# same-day tie, and the exclusions drop its prescription in the first year
# after registration; p3 has no events.
EVENT_ROWS = [
    "p1,2003-01-01,READ,A11..",
    "p1,2005-06-01,BNF,5.1.1.0",
    "p1,2005-06-20,READ,N771.",
    "p2,2004-05-01,BNF,5.1.1.0",
    "p2,2003-03-01,READ,H33..",
    "p2,2004-05-01,READ,N771z",
    "p2,2003-03-01,BNF,1.2.0.0",
]


def patients_of(rows: list[str]) -> dict[str, PatientInfo]:
    fields = [row.split(",") for row in rows]
    return {
        pid: PatientInfo(pid, gender, int(year), dt.date.fromisoformat(reg))
        for pid, gender, year, reg in fields
    }


def records_of(rows: list[str]) -> dict[str, tuple[EventRecord, ...]]:
    """The event rows as records, grouped under their patient ids."""
    events: dict[str, tuple[EventRecord, ...]] = {}
    for row in rows:
        pid, date, code_type, code = row.split(",")
        record = EventRecord(pid, dt.date.fromisoformat(date), code_type, code)
        events[pid] = events.get(pid, ()) + (record,)
    return events


def both_paths(tmp_path, event_rows: list[str]) -> tuple:
    """The loaded store and the record-built store of the same rows, or
    the ParseError each path raises."""
    results = []
    for build in (
        lambda: load(*write_cohort(tmp_path, PATIENT_ROWS, event_rows)),
        lambda: EventStore(patients_of(PATIENT_ROWS), records_of(event_rows)),
    ):
        try:
            results.append(build())
        except ParseError as exc:
            results.append(exc)
    return tuple(results)


def message_body(exc: ParseError) -> str:
    return str(exc).removeprefix(f"{exc.source}:{exc.line}: ")


class TestRecordStoreParity:
    def test_record_store_equals_loaded_store(self, tmp_path):
        loaded, built = both_paths(tmp_path, EVENT_ROWS)
        assert built == loaded
        assert built.db_end_date == loaded.db_end_date == dt.date(2005, 6, 20)
        assert set(built.code_table) == set(loaded.code_table)
        assert built.event_count == loaded.event_count == len(EVENT_ROWS)
        kept = [apply_prescription_exclusions(s) for s in (loaded, built)]
        assert kept[0].event_count == kept[1].event_count == len(EVENT_ROWS) - 2
        assert len(kept[1].patient_events("p1")) == 2
        assert kept[0] == kept[1]

    @pytest.mark.parametrize(
        "bad, body",
        [
            ("p9,2004-01-01,READ,A11..", "unknown patient_id 'p9'"),
            ("p2,2003-02-27,READ,A11..", "event dated 2003-02-27 before registration 2003-02-28"),
            ("p1,2004-01-01,READ,N77", "read code must have exactly 5 characters: 'N77'"),
            ("p1,2004-01-01,ICD,A11..", "code_type must be READ or BNF: 'ICD'"),
        ],
        ids=["unknown_patient", "before_registration", "malformed_code", "unknown_code_type"],
    )
    def test_bad_record_fails_as_its_row(self, tmp_path, bad, body):
        # After p1's rows, so the bad record is the fourth in either grouping.
        rows = [*EVENT_ROWS[:3], bad, *EVENT_ROWS[3:]]
        loaded, built = both_paths(tmp_path, rows)
        assert isinstance(loaded, ParseError) and isinstance(built, ParseError)
        assert message_body(loaded) == message_body(built) == body
        assert (loaded.line, built.line) == (5, 4)  # the header is line 1 of events.csv
        assert str(built) == f"records:4: {body}"

    @pytest.mark.parametrize(
        "bad, body",
        [
            (PatientInfo("p4", "X", 1950, dt.date(2000, 1, 1)), "gender must be M or F: 'X'"),
            (
                PatientInfo("p4", "M", "19x0", dt.date(2000, 1, 1)),
                "invalid literal for int() with base 10: '19x0'",
            ),
            (PatientInfo("p4", "M", 1950, "2000-13-01"), "month must be in 1..12"),
            (PatientInfo("p1", "M", 1950, dt.date(2000, 1, 1)), "duplicate patient_id 'p1'"),
        ],
        ids=["gender", "year", "date", "duplicate_id"],
    )
    def test_bad_patient_record_fails_as_its_row(self, tmp_path, bad, body):
        # Second in either form, and filed under a key of its own.
        row = ",".join(map(str, [bad.patient_id, bad.gender, bad.year_of_birth,
                                 bad.registration_date]))
        files = write_cohort(tmp_path, [PATIENT_ROWS[0], row, *PATIENT_ROWS[1:]], EVENT_ROWS)
        given = patients_of(PATIENT_ROWS[:1]) | {"p4": bad} | patients_of(PATIENT_ROWS[1:])
        with pytest.raises(ParseError) as loaded:
            load(*files)
        with pytest.raises(ParseError) as built:
            EventStore(given, records_of(EVENT_ROWS))
        assert message_body(loaded.value) == message_body(built.value) == body
        assert (loaded.value.line, built.value.line) == (3, 2)
        assert str(built.value) == f"records:2: {body}"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int-to-text has no digit limit",
    )
    @pytest.mark.parametrize("which", ["patient", "event"])
    def test_record_too_long_to_write_as_a_row_fails_as_its_row(self, which):
        # An int with more digits than Python writes as text.
        huge = 10 ** sys.get_int_max_str_digits()
        patients = patients_of(PATIENT_ROWS)
        events = {"p1": (EventRecord("p1", huge, "READ", "A11.."),)}
        if which == "patient":
            patients, events = {"p": PatientInfo("p", "M", huge, dt.date(2000, 1, 1))}, {}
        with pytest.raises(ParseError, match=r"^records:1: Exceeds the limit"):
            EventStore(patients, events)

    def test_records_are_filed_under_their_own_patient(self):
        # Patient and event records alike, whatever key holds them.
        record = EventRecord("p2", dt.date(2004, 1, 1), "READ", "A11..")
        patients = dict(zip(["q1", "q2", "q3"], patients_of(PATIENT_ROWS).values()))
        store = EventStore(patients, {"p1": (record,)})
        assert store.patients == patients_of(PATIENT_ROWS)
        assert store.patient_events("p1") == ()
        assert store.patient_events("p2") == (record,)

    def test_out_of_order_records_give_a_date_ordered_store(self):
        store = EventStore(patients_of(PATIENT_ROWS), records_of(EVENT_ROWS))
        dates = [ev.date for ev in store.patient_events("p2")]
        assert dates == sorted(dates)
        # Same-day records keep their given order.
        assert [ev.code for ev in store.patient_events("p2")] == [
            "H33..", "1.2.0.0", "5.1.1.0", "N771z"
        ]
        assert store == EventStore._from_columns(store.columns, store.db_end_date)
