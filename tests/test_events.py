import calendar
import datetime as dt
import random

import numpy as np
import pytest

from adrrefine.baskets import build_database
from adrrefine.errors import ConfigError, DomainError, ParseError
from adrrefine.events import (
    EventStore,
    active_months,
    add_months,
    apply_prescription_exclusions,
    eligible_patients,
    load,
    months_between,
)

from conftest import write_cohort


def oracle_months_between(start: dt.date, end: dt.date) -> int:
    """Step forward one calendar month at a time, clamping the day,
    and count how many whole steps fit before passing `end`."""
    n = 0
    year, month = start.year, start.month
    while True:
        month += 1
        if month == 13:
            year, month = year + 1, 1
        day = min(start.day, calendar.monthrange(year, month)[1])
        if dt.date(year, month, day) > end:
            return n
        n += 1


class TestCalendarArithmetic:
    def test_known_spans(self):
        assert months_between(dt.date(2003, 1, 1), dt.date(2005, 6, 30)) == 29
        assert months_between(dt.date(2010, 1, 15), dt.date(2012, 1, 14)) == 23
        assert months_between(dt.date(2010, 1, 15), dt.date(2010, 1, 15)) == 0
        assert months_between(dt.date(2010, 1, 15), dt.date(2010, 1, 14)) == 0

    def test_clamped_month_end(self):
        assert add_months(dt.date(2010, 1, 31), 1) == dt.date(2010, 2, 28)
        assert add_months(dt.date(2012, 1, 31), 1) == dt.date(2012, 2, 29)

    def test_against_stepping_oracle(self):
        rng = random.Random(20)
        for _ in range(500):
            start = dt.date(1995, 1, 1) + dt.timedelta(days=rng.randint(0, 7000))
            end = start + dt.timedelta(days=rng.randint(0, 4000))
            assert months_between(start, end) == oracle_months_between(start, end)


class TestLoad:
    def test_worked_example_counts(self, worked_store):
        assert worked_store.patient_count == 4
        assert worked_store.event_count == 20
        assert worked_store.db_end_date == dt.date(2011, 1, 5)

    def test_empty_events_file(self, tmp_path):
        patients, events = write_cohort(
            tmp_path, ["p1,M,1950,2000-01-01"], []
        )
        store = load(patients, events)
        assert store.patient_count == 1
        assert store.event_count == 0
        assert store.db_end_date is None

    def test_event_before_registration_rejected(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,1999-12-31,READ,A11.."],
        )
        with pytest.raises(ParseError, match="before registration"):
            load(patients, events)

    def test_unknown_patient_rejected(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p2,2001-01-01,READ,A11.."],
        )
        with pytest.raises(ParseError, match="unknown patient_id"):
            load(patients, events)

    def test_malformed_row_reports_line_number(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2001-01-01,READ,A11..", "p1,not-a-date,READ,A11.."],
        )
        with pytest.raises(ParseError, match=":3:"):
            load(patients, events)

    def test_bad_code_type_rejected(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2001-01-01,ICD,A11.."],
        )
        with pytest.raises(ParseError, match="code_type"):
            load(patients, events)

    def test_events_sorted_by_date(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            [
                "p1,2003-05-01,READ,B11..",
                "p1,2001-05-01,READ,A11..",
                "p1,2002-05-01,BNF,1.2.0.0",
            ],
        )
        store = load(patients, events)
        dates = [e.date for e in store.patient_events("p1")]
        assert dates == sorted(dates)

    def test_db_end_override(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2001-01-01,READ,A11.."],
        )
        store = load(patients, events, db_end_date=dt.date(2012, 12, 31))
        assert store.db_end_date == dt.date(2012, 12, 31)


def _exclusion_store(tmp_path) -> EventStore:
    patients, events = write_cohort(
        tmp_path,
        ["p1,M,1950,2000-01-01"],
        [
            "p1,2000-07-01,BNF,1.2.0.0",   # 6 months after registration
            "p1,2001-01-01,BNF,2.2.0.0",   # exactly 12 months after
            "p1,2001-01-02,BNF,3.1.0.0",   # 12 months + 1 day
            "p1,2000-07-05,READ,A11..",    # diagnosis inside window
            "p1,2009-12-22,BNF,4.1.0.0",   # 10 days before db end
            "p1,2009-12-01,BNF,5.1.0.0",   # 31 days before db end
            "p1,2010-01-01,READ,Z99..",    # sets db_end_date
        ],
    )
    return load(patients, events)


class TestPrescriptionExclusions:
    def test_early_registration_window(self, tmp_path):
        store = apply_prescription_exclusions(_exclusion_store(tmp_path))
        codes = {e.code for e in store.patient_events("p1")}
        assert "1.2.0.0" not in codes  # 6 months in: removed
        assert "2.2.0.0" not in codes  # boundary day itself: removed
        assert "3.1.0.0" in codes      # one day past the boundary: kept

    def test_end_of_database_window(self, tmp_path):
        store = apply_prescription_exclusions(_exclusion_store(tmp_path))
        codes = {e.code for e in store.patient_events("p1")}
        assert "4.1.0.0" not in codes  # 10 days before the end: removed
        assert "5.1.0.0" in codes      # outside the 30-day buffer: kept

    def test_diagnoses_untouched(self, tmp_path):
        before = _exclusion_store(tmp_path)
        after = apply_prescription_exclusions(before)
        read_before = [e for e in before.patient_events("p1") if e.code_type == "READ"]
        read_after = [e for e in after.patient_events("p1") if e.code_type == "READ"]
        assert read_before == read_after

    def test_idempotent(self, tmp_path):
        once = apply_prescription_exclusions(_exclusion_store(tmp_path))
        twice = apply_prescription_exclusions(once)
        assert once.events == twice.events

    def test_never_adds_events(self, tmp_path):
        before = _exclusion_store(tmp_path)
        after = apply_prescription_exclusions(before)
        assert set(after.patient_events("p1")) <= set(before.patient_events("p1"))

    @pytest.mark.parametrize("months, days", [(-1, 30), (12, -1), (-3, -30)])
    def test_negative_window_is_config_error(self, tmp_path, months, days):
        store = _exclusion_store(tmp_path)
        with pytest.raises(ConfigError, match="must be >= 0"):
            apply_prescription_exclusions(store, months, days)

    @pytest.mark.parametrize("bad", [1.5, True, "12", None, float("nan")])
    def test_window_must_be_an_integer(self, tmp_path, bad):
        store = _exclusion_store(tmp_path)
        for months, days in ((bad, 30), (12, bad)):
            with pytest.raises(ConfigError, match=" must be an integer: "):
                apply_prescription_exclusions(store, months, days)

    @pytest.mark.parametrize("bad", [1.5, True, "24", None])
    def test_min_active_months_must_be_an_integer(self, tmp_path, bad):
        store = _exclusion_store(tmp_path)
        for count in (eligible_patients, build_database):
            with pytest.raises(ConfigError, match="^min_active_months must be an integer: "):
                count(store, bad)

    def test_numpy_integer_windows(self, tmp_path):
        store = _exclusion_store(tmp_path)
        assert apply_prescription_exclusions(store, np.int64(12), np.int32(30)) == (
            apply_prescription_exclusions(store, 12, 30)
        )
        assert eligible_patients(store, np.int64(1)) == eligible_patients(store, 1)

    def test_negative_min_active_months_is_config_error(self, tmp_path):
        store = _exclusion_store(tmp_path)
        for count in (eligible_patients, build_database):
            with pytest.raises(ConfigError, match=r"^min_active_months must be >= 0: -3$"):
                count(store, -3)

    def test_long_window_drops_every_prescription(self, tmp_path):
        # Day arithmetic past 9999-12-31 once wrapped around int64 (from
        # about 4 * 10**17 months) and kept prescriptions, or overflowed.
        patients, events = write_cohort(
            tmp_path, ["p1,M,1950,0001-01-01"], ["p1,9999-12-31,BNF,1.2.0.0"]
        )
        store = load(patients, events)
        assert apply_prescription_exclusions(store, 12 * 9999 - 1, 0).event_count == 1
        for months in (12 * 9999, 4 * 10**17, 10**18, 10**19, 10**30):
            assert apply_prescription_exclusions(store, months, 0).event_count == 0


class TestActivity:
    def test_active_months_worked_example(self, worked_store):
        # Patient 1 spans 2003-06-05 .. 2005-09-08; patient 4 spans 4 days.
        assert active_months(worked_store, "1") == 27
        assert active_months(worked_store, "2") == 72
        assert active_months(worked_store, "3") == 3
        assert active_months(worked_store, "4") == 0

    @pytest.mark.parametrize("lookup", [EventStore.patient_events, active_months])
    def test_unknown_patient_rejected(self, worked_store, lookup):
        with pytest.raises(DomainError, match="unknown patient: 99"):
            lookup(worked_store, "99")

    def test_single_event_is_zero(self, tmp_path):
        patients, events = write_cohort(
            tmp_path, ["p1,M,1950,2000-01-01"], ["p1,2001-01-01,READ,A11.."]
        )
        assert active_months(load(patients, events), "p1") == 0

    def test_no_events_is_zero(self, tmp_path):
        patients, events = write_cohort(tmp_path, ["p1,M,1950,2000-01-01"], [])
        assert active_months(load(patients, events), "p1") == 0

    def test_eligibility_threshold(self, worked_store):
        assert eligible_patients(worked_store, 24) == {"1", "2"}
        assert eligible_patients(worked_store, 0) == {"1", "2", "3", "4"}

    def test_eligibility_monotone_in_threshold(self, worked_store):
        sizes = [len(eligible_patients(worked_store, t)) for t in range(0, 80, 4)]
        assert sizes == sorted(sizes, reverse=True)

    def test_empty_store_eligibility(self, tmp_path):
        patients, events = write_cohort(tmp_path, [], [])
        assert eligible_patients(load(patients, events)) == set()
