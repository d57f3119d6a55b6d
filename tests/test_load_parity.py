"""Loader error messages and accepted inputs, pinned.

Each malformed cohort below must fail with exactly the `ParseError` text
recorded here (the file paths are written as `{patients}`/`{events}`):
line numbers count CSV records from the header's 1, blank lines included;
the first fault in a file wins, whatever its kind and wherever the second
one is. Dates are read by `dt.date.fromisoformat`, so each spelling is
accepted or rejected exactly as that function does on the running Python.
"""

import datetime as dt
import random

import pytest

from adrrefine.errors import ParseError
from adrrefine.events import load

PH = "patient_id,gender,year_of_birth,registration_date\n"
EH = "patient_id,date,code_type,code\n"


def lines(header: str, *rows: str) -> str:
    return header + "".join(row + "\n" for row in rows)


def crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


OK_P = lines(PH, "p1,M,1950,2000-01-01", "p2,F,1960,2003-02-28")
GOOD = "p1,2001-01-01,READ,A11.."  # a valid event row
P1 = "p1,M,1950,2000-01-01"

CASES = {
    "patients_field_count": (lines(PH, "p1,M,1950"), EH),
    "patients_blank_then_bad_gender": (lines(PH, P1, "", "", "p2,X,1950,2000-01-01"), EH),
    "patients_duplicate": (lines(PH, P1, "p1,F,1950,2000-01-01"), EH),
    "patients_bad_year": (lines(PH, "p1,M,19x0,2000-01-01"), EH),
    "patients_bad_date": (lines(PH, "p1,M,1950,2000-02-30"), EH),
    "patients_header": ("patient_id,sex,year_of_birth,registration_date\n", EH),
    "patients_empty_file": ("", EH),
    "patients_quoted_comma": (lines(PH, '"p,1",M,1950,2000-01-01', '"p,1",F,1950,2000-01-01'), EH),
    "patients_crlf": (crlf(lines(PH, P1, "p2,M,1950,2000-01-01,x")), EH),
    "events_field_count_short": (OK_P, lines(EH, "p1,2001-01-01,READ")),
    "events_field_count_long": (OK_P, lines(EH, GOOD, GOOD + ",x")),
    "events_blank_lines": (OK_P, lines(EH, GOOD, "", "", "p1,2001-01-02,READ,A1...x")),
    "events_quoted_comma_code": (OK_P, lines(EH, 'p1,2001-01-01,READ,"A1,1."')),
    "events_quoted_comma_pid": (
        OK_P, lines(EH, '"p1",2001-01-01,READ,A11..', '"p,1",2001-01-01,READ,A11..')
    ),
    "events_quoted_newline": (OK_P, lines(EH, 'p1,2001-01-01,READ,"A1\n1."', GOOD)),
    "events_crlf": (OK_P, crlf(lines(EH, GOOD, "p1,2001-01-01,BNF,1.0.2.0"))),
    "events_unknown_patient": (OK_P, lines(EH, GOOD, "p3,2001-01-01,READ,A11..")),
    "events_bad_read": (OK_P, lines(EH, "p1,2001-01-01,READ,A1.1.")),
    "events_bad_bnf": (OK_P, lines(EH, "p1,2001-01-01,BNF,1.2.x.0")),
    "events_bad_bnf_parts": (OK_P, lines(EH, "p1,2001-01-01,BNF,1.2.0")),
    "events_bad_code_type": (OK_P, lines(EH, "p1,2001-01-01,ICD,A11..")),
    "events_before_registration": (OK_P, lines(EH, GOOD, "p2,2003-02-27,READ,A11..")),
    "events_bad_date": (OK_P, lines(EH, "p1,2001-02-29,READ,A11..")),
    "events_header": (OK_P, "patient_id,date,type,code\n"),
    "events_empty_file": (OK_P, ""),
    "two_faults_code_then_date": (
        OK_P, lines(EH, "p1,2001-01-01,READ,A1.1.", "p1,2001-13-01,READ,A11..")
    ),
    "two_faults_date_then_code": (
        OK_P, lines(EH, "p1,2001-13-01,READ,A11..", "p1,2001-01-01,READ,A1.1.")
    ),
    "two_faults_registration_then_date": (
        OK_P, lines(EH, "p2,2001-01-01,READ,A11..", "p1,2001-13-01,READ,A11..")
    ),
    "two_faults_unknown_then_fields": (
        OK_P, lines(EH, "p9,2001-01-01,READ,A11..", "p1,2001-01-01")
    ),
    "two_faults_repeat_code_then_new_bad": (
        OK_P,
        lines(
            EH, GOOD, "p1,2001-01-02,READ,A11..", "p2,2003-01-01,READ,A11..",
            "p1,garbage,READ,A11..",
        ),
    ),
    # Faults in different blocks of rows, and a fault found only after the
    # whole block is read (registration) before one found row by row (date).
    "two_faults_far_apart": (
        OK_P,
        lines(
            EH, *[GOOD] * 5000, "p1,2001-01-01,BNF,1.2.0", *[GOOD] * 3000,
            "p1,2001-01-01,READ,A1.1.",
        ),
    ),
    "two_faults_registration_far_before_date": (
        OK_P, lines(EH, *[GOOD] * 4100, "p2,2001-01-01,READ,A11..", *[GOOD] * 10, "p1,x,READ,A11..")
    ),
}

MESSAGES = {
    "patients_field_count": "{patients}:2: expected 4 fields, got 3",
    "patients_blank_then_bad_gender": "{patients}:5: gender must be M or F: 'X'",
    "patients_duplicate": "{patients}:3: duplicate patient_id 'p1'",
    "patients_bad_year": "{patients}:2: invalid literal for int() with base 10: '19x0'",
    "patients_bad_date": "{patients}:2: day is out of range for month",
    "patients_header": (
        "{patients}:1: expected header patient_id,gender,year_of_birth,registration_date"
    ),
    "patients_empty_file": (
        "{patients}:1: expected header patient_id,gender,year_of_birth,registration_date"
    ),
    "patients_quoted_comma": "{patients}:3: duplicate patient_id 'p,1'",
    "patients_crlf": "{patients}:3: expected 4 fields, got 5",
    "events_field_count_short": "{events}:2: expected 4 fields, got 3",
    "events_field_count_long": "{events}:3: expected 4 fields, got 5",
    "events_blank_lines": "{events}:5: read code must have exactly 5 characters: 'A1...x'",
    "events_quoted_comma_code": "{events}:2: read code contains invalid character ',': 'A1,1.'",
    "events_quoted_comma_pid": "{events}:3: unknown patient_id 'p,1'",
    "events_quoted_newline": "{events}:2: read code contains invalid character '\\n': 'A1\\n1.'",
    "events_crlf": "{events}:3: bnf code has a zero before a non-zero part: (1, 0, 2, 0)",
    "events_unknown_patient": "{events}:3: unknown patient_id 'p3'",
    "events_bad_read": "{events}:2: read code has a dot before a non-dot character: 'A1.1.'",
    "events_bad_bnf": "{events}:2: bnf code parts must be integers: '1.2.x.0'",
    "events_bad_bnf_parts": "{events}:2: bnf code must have 4 dot-separated parts: '1.2.0'",
    "events_bad_code_type": "{events}:2: code_type must be READ or BNF: 'ICD'",
    "events_before_registration": (
        "{events}:3: event dated 2003-02-27 before registration 2003-02-28"
    ),
    "events_bad_date": "{events}:2: day is out of range for month",
    "events_header": "{events}:1: expected header patient_id,date,code_type,code",
    "events_empty_file": "{events}:1: expected header patient_id,date,code_type,code",
    "two_faults_code_then_date": (
        "{events}:2: read code has a dot before a non-dot character: 'A1.1.'"
    ),
    "two_faults_date_then_code": "{events}:2: month must be in 1..12",
    "two_faults_registration_then_date": (
        "{events}:2: event dated 2001-01-01 before registration 2003-02-28"
    ),
    "two_faults_unknown_then_fields": "{events}:2: unknown patient_id 'p9'",
    "two_faults_repeat_code_then_new_bad": (
        "{events}:4: event dated 2003-01-01 before registration 2003-02-28"
    ),
    "two_faults_far_apart": "{events}:5002: bnf code must have 4 dot-separated parts: '1.2.0'",
    "two_faults_registration_far_before_date": (
        "{events}:4102: event dated 2001-01-01 before registration 2003-02-28"
    ),
}

DATE_SPELLINGS = [
    "2005-01-01", "2005-01", " 2005-01-01", "2005-01-01 ", "+2005-01-01", "2005-01-01T00",
    "20050101", "2005-W01-1", "2005-1-1", "05-01-01", "2005-02-29", "0000-01-01", "",
]


def write_files(tmp_path, patients_text: str, events_text: str) -> tuple[str, str]:
    patients, events = tmp_path / "patients.csv", tmp_path / "events.csv"
    patients.write_bytes(patients_text.encode())
    events.write_bytes(events_text.encode())
    return str(patients), str(events)


@pytest.mark.parametrize("name", sorted(CASES))
def test_message_unchanged(tmp_path, name):
    patients, events = write_files(tmp_path, *CASES[name])
    with pytest.raises(ParseError) as excinfo:
        load(patients, events)
    assert str(excinfo.value) == MESSAGES[name].format(patients=patients, events=events)


def test_every_case_has_a_message():
    assert set(CASES) == set(MESSAGES)


@pytest.mark.parametrize("spelling", DATE_SPELLINGS)
def test_event_date_spelling_follows_fromisoformat(tmp_path, spelling):
    patients, events = write_files(tmp_path, OK_P, EH + f"p1,{spelling},READ,A11..\n")
    try:
        want = dt.date.fromisoformat(spelling)
    except ValueError as exc:
        with pytest.raises(ParseError) as excinfo:
            load(patients, events)
        assert str(excinfo.value) == f"{events}:2: {exc}"
        return
    if want < dt.date(2000, 1, 1):
        with pytest.raises(ParseError, match="before registration"):
            load(patients, events)
        return
    (record,) = load(patients, events).patient_events("p1")
    assert record.date == want


@pytest.mark.parametrize("spelling", DATE_SPELLINGS)
def test_registration_date_spelling_follows_fromisoformat(tmp_path, spelling):
    patients, events = write_files(tmp_path, PH + f"p1,M,1950,{spelling}\n", EH)
    try:
        want = dt.date.fromisoformat(spelling)
    except ValueError as exc:
        with pytest.raises(ParseError) as excinfo:
            load(patients, events)
        assert str(excinfo.value) == f"{patients}:2: {exc}"
        return
    assert load(patients, events).patients["p1"].registration_date == want


def test_crlf_quoted_and_blank_rows_load_like_plain_rows(tmp_path):
    rows = ["p1,2001-01-01,READ,A11..", "p2,2004-01-01,BNF,1.2.0.0", "p1,2001-01-01,BNF,5.1.0.0"]
    plain = load(*write_files(tmp_path, OK_P, EH + "".join(r + "\n" for r in rows)))
    quoted = [",".join(f'"{f}"' for f in r.split(",")) for r in rows]
    odd = EH + "\n" + "\n\n".join(quoted) + "\n\n"
    other = load(*write_files(tmp_path, OK_P.replace("\n", "\r\n"), odd.replace("\n", "\r\n")))
    assert other == plain
    # Same-day rows keep their file order.
    assert [e.code for e in plain.patient_events("p1")] == ["A11..", "5.1.0.0"]


def test_same_day_rows_keep_file_order(tmp_path):
    rng = random.Random(5)
    codes = [("READ", "A11.."), ("READ", "B22z."), ("BNF", "1.2.0.0"), ("BNF", "5.1.3.0")]
    pids = [f"p{i}" for i in range(30)]
    rows = [
        (rng.choice(pids), dt.date(2004, 1, 1) + dt.timedelta(days=rng.randint(0, 20)))
        + rng.choice(codes)
        for _ in range(3000)
    ]
    text = EH + "".join(f"{pid},{date},{t},{c}\n" for pid, date, t, c in rows)
    patients = PH + "".join(f"{pid},F,1950,2000-01-01\n" for pid in pids)
    store = load(*write_files(tmp_path, patients, text))
    for pid in pids:
        want = sorted((r for r in rows if r[0] == pid), key=lambda r: r[1])  # stable
        got = [(e.patient_id, e.date, e.code_type, e.code) for e in store.patient_events(pid)]
        assert got == want
