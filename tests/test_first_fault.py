"""The first fault in a file wins, whatever block holds it, and the one
helper that finds it, `errors.converted`.

Each example below is a valid file with two single-row faults at random
rows, read in blocks of a few hundred characters: its ParseError must be
that of the same file cut just after its first faulty row.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrrefine import errors
from adrrefine.errors import ParseError, converted
from adrrefine.events import load
from adrrefine.mining import read_rules_csv, read_rules_json

from test_load_parity import EH, OK_P, PH
from test_rule_table import CSV_ROW_FAULTS, HEADER, JSON_OBJECT_FAULTS

# Faulty rows of `test_load_parity.CASES`, each a fault wherever it stands
# after the first valid row (`p0` for patients) under `OK_P` (events).
PATIENT_FAULTS = [
    "px,M,1950", "px,M,1950,2000-01-01,x", "px,X,1950,2000-01-01", "p0,F,1950,2000-01-01",
    "px,M,19x0,2000-01-01", "px,M,1950,2000-02-30",
]
EVENT_FAULTS = [
    "p1,2001-01-01,READ", "p1,2001-01-01,READ,A11..,x", "p1,2001-01-01,READ,A1...x",
    'p1,2001-01-01,READ,"A1,1."', '"p,1",2001-01-01,READ,A11..', 'p1,2001-01-01,READ,"A1\n1."',
    "p1,2001-01-01,BNF,1.0.2.0", "p3,2001-01-01,READ,A11..", "p1,2001-01-01,READ,A1.1.",
    "p1,2001-01-01,BNF,1.2.x.0", "p1,2001-01-01,BNF,1.2.0", "p1,2001-01-01,ICD,A11..",
    "p2,2003-02-27,READ,A11..", "p1,2001-02-29,READ,A11..", "p1,2001-13-01,READ,A11..",
]
RULE_FAULTS = [row for row, _ in CSV_ROW_FAULTS]
GOOD_RULE = {
    "antecedent": ["B11.."], "consequent": "A11..", "left_support": 0.2, "support": 0.1,
    "confidence": 0.5, "lift": 1.5, "chi_squared": 2.0,
}
OBJECT_FAULTS = [GOOD_RULE | changes for changes, _ in JSON_OBJECT_FAULTS] + [
    {k: v for k, v in GOOD_RULE.items() if k != "left_support"}
]


def patient_row(draw, k):
    pid, gender = draw(st.sampled_from([f"p{k}", f'"p{k}"'])), draw(st.sampled_from("MF"))
    return f"{pid},{gender},{draw(st.integers(1900, 2000))},2000-01-0{k % 9 + 1}"


def event_row(draw, k):
    pid, first = draw(st.sampled_from([("p1", 2001), ("p2", 2004), ('"p2"', 2005)]))
    code = draw(st.sampled_from(["READ,A11..", "READ,H05..", "BNF,1.2.0.0", 'BNF,"5.1.0.0"']))
    return f"{pid},{first + k % 3}-0{k % 9 + 1}-1{k % 10},{code}"


def rule_row(draw, k):
    antecedent = draw(st.sampled_from(["B11..", "B11..|C10..", "1.2.0.0|GENDER:F", '"H05.."']))
    consequent = draw(st.sampled_from(["A11..", "GENDER:M"]))
    return f"{antecedent},{consequent},0.{k % 9 + 1},0.1,0.5,1.5,2.0"


def rule_object(draw, k):
    return GOOD_RULE | {"antecedent": draw(st.sampled_from([["B11.."], ["C10..", "H05.."]])),
                        "support": k / 100}


# Per input: its valid rows, its faulty ones, how a list of rows becomes
# the file's text, and how the file is read.
INPUTS = {
    "patients.csv": (
        patient_row, PATIENT_FAULTS, lambda rows: PH + "".join(r + "\n" for r in rows),
        lambda path: load(path, str(Path(path).with_name("events.csv"))),
    ),
    "events.csv": (
        event_row, EVENT_FAULTS, lambda rows: EH + "".join(r + "\n" for r in rows),
        lambda path: load(str(Path(path).with_name("patients.csv")), path),
    ),
    "rules.csv": (
        rule_row, RULE_FAULTS, lambda rows: HEADER + "".join(r + "\n" for r in rows),
        read_rules_csv,
    ),
    "rules.json": (rule_object, OBJECT_FAULTS, json.dumps, read_rules_json),
}


def parse_error(folder: Path, name: str, rows: list) -> ParseError:
    _, _, text, read = INPUTS[name]
    (folder / name).write_text(text(rows), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read(str(folder / name))
    return info.value


@pytest.mark.parametrize("name", sorted(INPUTS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_fault_wins_across_blocks(name, data):
    valid, faults, _, _ = INPUTS[name]
    rows = [valid(data.draw, k) for k in range(data.draw(st.integers(1, 60)))]
    if name.endswith(".csv"):  # blank records count in line numbers too
        rows = rows[:1] + [r if data.draw(st.integers(0, 9)) else "" for r in rows[1:]]
    second = data.draw(st.integers(1, len(rows)))
    rows.insert(second, data.draw(st.sampled_from(faults)))
    first = data.draw(st.integers(1, second))
    rows.insert(first, data.draw(st.sampled_from(faults)))
    block = data.draw(st.sampled_from([100, 300, 500]))
    with tempfile.TemporaryDirectory() as folder, mock.patch.object(
        errors, "_CSV_BLOCK_CHARS", block
    ):
        folder = Path(folder)
        (folder / "patients.csv").write_text(OK_P if name == "events.csv" else PH)
        (folder / "events.csv").write_text(EH)
        whole = parse_error(folder, name, rows)
        cut = parse_error(folder, name, rows[: first + 1])
    assert str(whole) == str(cut)
    assert whole.line == (first + 2 if name.endswith(".csv") else None)


def rows_of(values):
    return [(line, [value]) for line, value in enumerate(values, 2)]


def test_converted_valid_block_converts_once():
    calls = []

    def convert(block):
        calls.append(block)
        return [int(v) for v in block]

    rows = iter(rows_of(["1", "2"]))
    assert converted(convert, ["1", "2"], rows, "f.csv") == [1, 2]
    assert calls == [["1", "2"]]
    assert next(rows) == (2, ["1"])  # no row was read


def test_converted_raises_the_first_bad_row():
    values = ["1", "x", "y"]
    with pytest.raises(ParseError) as info:
        converted(lambda block: [int(v) for v in block], values, rows_of(values), "f.csv", "bad: ")
    assert str(info.value) == "f.csv:3: bad: invalid literal for int() with base 10: 'x'"


def test_converted_block_failing_on_no_row_is_an_assertion():
    def convert(block):
        if len(block) > 1:
            raise ValueError("more than one row")
        return block

    with pytest.raises(AssertionError, match="^a block failed but none of its rows$"):
        converted(convert, ["1", "2"], rows_of(["1", "2"]), "f.csv")
