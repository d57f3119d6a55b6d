"""The block reader in `errors.py` against `csv.reader`, a record at a
time: rows, line numbers and error text; one open per input file; the
split path taken on plain files; and `read_rules_csv` against a
row-at-a-time rule oracle."""

import csv
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adrrefine import errors, synth
from adrrefine.baskets import build_database
from adrrefine.codes import Item, ItemKind, gender_item, parse_item
from adrrefine.errors import ParseError, csv_columns, csv_rows
from adrrefine.events import load
from adrrefine.mining import (
    AssociationRule, RuleTable, mine_all_rules, read_rules_csv, write_rules_csv,
)

from conftest import WORKED_EXAMPLE
from oracles import csv_rows_oracle
from test_synth import make_config

HEADER = ["a", "b", "c"]
# The csv module's field limit while the reader is compared: fields of
# LIMIT characters read, one more is an error.
LIMIT = 6
PIECES = [
    ",", '"', "\r", "\n", " ", "\x0b", "\x1c", "\u2028", "é", "\U0001d11e", "\x00", "x",
    "\r\n", "\n\n", "x,y,z\n", "x,,\r\n", ",,\n", "x" * LIMIT, "x" * (LIMIT + 1),
]


@st.composite
def csv_texts(draw):
    head = draw(st.sampled_from(["a,b,c\n"] * 4 + ["a,b,c\r\n", '"a",b,c\n', "a,b\n", "", "\n"]))
    body = draw(st.lists(st.sampled_from(PIECES), max_size=40))
    return head + "".join(body)


def reader_output(path):
    """(rows, fault) of `csv_rows` as `csv_rows_oracle` gives them, after
    checking each block's columns against its rows."""
    rows, fault = [], None
    try:
        for block in csv_columns(path, HEADER):
            first = len(rows)
            try:
                for row in block.rows():
                    rows.append(row)
            except ParseError:
                assert block.columns is None  # a record of the wrong length
                raise
            assert block.columns == [list(c) for c in zip(*(r for _, r in rows[first:]))]
    except ParseError as exc:
        fault = (str(exc), exc.line)
    if fault is None:
        assert list(csv_rows(path, HEADER)) == rows
    return rows, fault


class TestReaderMatchesCsvModule:
    @settings(
        max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(csv_texts(), st.integers(1, 12))
    @example("a,b,c\nx,y,z\r", 3)  # a lone \r at the end of the file
    @example("a,b,c\r\nx,y,z\r\nx,y,z\r\n", 9)  # a block cut between \r and \n
    @example('a,b,c\nx,y,z\n"x\n,y",z,\n' + "x" * (LIMIT + 1), 4)
    def test_rows_lines_and_errors(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(errors, "_CSV_BLOCK_CHARS", block)
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        old = csv.field_size_limit(LIMIT)
        try:
            got = reader_output(str(path))
            want_rows, want_fault = csv_rows_oracle(str(path), HEADER)
        finally:
            csv.field_size_limit(old)
        if want_fault is not None:
            message, line = want_fault
            want_fault = (f"{path}:{line}: {message}", line)
        assert got == (want_rows, want_fault)


def count_opens(monkeypatch) -> Counter:
    opened = Counter()
    real = errors.open_input

    def counting(path, *args, **kwargs):
        opened[path] += 1
        return real(path, *args, **kwargs)

    monkeypatch.setattr(errors, "open_input", counting)
    return opened


def count_readers(monkeypatch) -> list:
    made = []
    real = csv.reader

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(errors.csv, "reader", counting)
    return made


PH = "patient_id,gender,year_of_birth,registration_date\n"
EH = "patient_id,date,code_type,code\n"


def cohort(tmp_path, patient_rows, event_rows):
    patients, events = tmp_path / "patients.csv", tmp_path / "events.csv"
    patients.write_text(PH + "".join(r + "\n" for r in patient_rows))
    events.write_text(EH + "".join(r + "\n" for r in event_rows))
    return str(patients), str(events)


PIDS = [f"p{i}" for i in range(60)]
PATIENT_ROWS = [f"{pid},F,1950,2000-01-01" for pid in PIDS]
EVENT_ROWS = [f"{pid},2001-0{1 + k % 9}-01,READ,A11.." for k, pid in enumerate(PIDS * 4)]


class TestOpenedOnce:
    """`load` and `read_rules_csv` open each input file once, whatever
    path its blocks take and wherever a bad row is."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(errors, "_CSV_BLOCK_CHARS", 200)

    def test_plain_cohort(self, tmp_path, monkeypatch):
        files = cohort(tmp_path, PATIENT_ROWS, EVENT_ROWS)
        opened = count_opens(monkeypatch)
        assert load(*files).event_count == len(EVENT_ROWS)
        assert opened == {path: 1 for path in files}

    def test_quoted_patient_id_with_a_comma(self, tmp_path, monkeypatch):
        files = cohort(
            tmp_path,
            PATIENT_ROWS + ['"p,1",M,1950,2000-01-01'],
            EVENT_ROWS + ['"p,1",2001-01-01,READ,A11..'] + EVENT_ROWS,
        )
        opened = count_opens(monkeypatch)
        store = load(*files)
        assert [e.code for e in store.patient_events("p,1")] == ["A11.."]
        assert store.event_count == 2 * len(EVENT_ROWS) + 1
        assert opened == {path: 1 for path in files}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("p99,2001-01-01,READ,A11..", "unknown patient_id 'p99'"),
            ("p1,2001-01-01,READ", "expected 4 fields, got 3"),
            ('p1,2001-01-01,READ,"A1,1."', "read code contains invalid character ',': 'A1,1.'"),
        ],
    )
    def test_bad_row_in_a_later_block(self, tmp_path, monkeypatch, bad, message):
        patients, events = cohort(tmp_path, PATIENT_ROWS, EVENT_ROWS + [bad] + EVENT_ROWS)
        opened = count_opens(monkeypatch)
        with pytest.raises(ParseError) as info:
            load(patients, events)
        line = len(EVENT_ROWS) + 2
        assert (str(info.value), info.value.line) == (f"{events}:{line}: {message}", line)
        assert opened == {patients: 1, events: 1}

    def test_rules_bad_row_in_a_later_block(self, tmp_path, monkeypatch):
        rows = (WORKED_EXAMPLE / "rules.csv").read_text().splitlines()
        path = tmp_path / "rules.csv"
        lines = rows + rows[1:] * 5 + ["B11..,A11..,x,1,1,1,1"]
        path.write_text("\n".join(lines) + "\n")
        opened = count_opens(monkeypatch)
        with pytest.raises(ParseError, match=f":{len(lines)}: could not convert string"):
            read_rules_csv(str(path))
        assert opened == {str(path): 1}


@pytest.fixture(scope="module")
def plain_files(tmp_path_factory):
    """patients.csv, events.csv and rules.csv of a generated cohort, each
    more than one default-size block long."""
    out = tmp_path_factory.mktemp("plain")
    synth.generate(make_config(patient_count=3000), str(out))
    files = str(out / "patients.csv"), str(out / "events.csv")
    write_rules_csv(mine_all_rules(build_database(load(*files))), str(out / "rules.csv"))
    return out


class TestSplitPath:
    """Plain files never reach `csv.reader`: a change that falls back to
    it on every block fails here, not only in the benchmark."""

    def test_plain_files_construct_no_csv_reader(self, plain_files, monkeypatch):
        sizes = [(plain_files / n).stat().st_size for n in ("events.csv", "rules.csv")]
        assert min(sizes) > errors._CSV_BLOCK_CHARS  # two blocks or more
        made = count_readers(monkeypatch)
        store = load(str(plain_files / "patients.csv"), str(plain_files / "events.csv"))
        rules = read_rules_csv(str(plain_files / "rules.csv"))
        assert store.event_count > 0 and len(rules) > 0
        assert made == []

    def test_one_quoted_field_in_the_last_block(self, plain_files, tmp_path, monkeypatch):
        patients = str(plain_files / "patients.csv")
        text = (plain_files / "events.csv").read_text()
        head, last = text[: -2].rsplit("\n", 1)
        pid, rest = last.split(",", 1)
        quoted = tmp_path / "events.csv"
        quoted.write_text(f'{head}\n"{pid}",{rest}{text[-2:]}')
        made = count_readers(monkeypatch)
        got = load(patients, str(quoted))
        assert len(made) == 1
        want = load(patients, str(plain_files / "events.csv"))
        assert got == want
        for name in ("offsets", "day", "code"):
            assert np.array_equal(getattr(got.columns, name), getattr(want.columns, name))


def rules_oracle(path):
    """The rules of a rules.csv file read a row at a time: `csv.reader`,
    then one `AssociationRule` per non-blank record, built from its
    parsed tokens and `float` measures."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))[1:]
    return [
        AssociationRule(
            frozenset(parse_item(t) for t in row[0].split("|")),
            parse_item(row[1]),
            **dict(zip(["left_support", "support", "confidence", "lift", "chi_squared"],
                       map(float, row[2:]))),
        )
        for row in records
        if row
    ]


def assert_bit_equal(table, rules):
    """`table` equals `rules` rule by rule with every float's bits, and its
    arrays equal those of the table built from `rules`."""
    assert len(table) == len(rules)
    for got, want in zip(table, rules):
        assert (got.antecedent, got.consequent) == (want.antecedent, want.consequent)
        for name in ("left_support", "support", "confidence", "lift", "chi_squared"):
            assert getattr(got, name).hex() == getattr(want, name).hex()
    built = RuleTable.from_rules(rules)
    assert table.items == built.items
    for name in ("antecedent", "consequent", "left_support", "support", "confidence",
                 "lift", "chi_squared"):
        got, want = getattr(table, name), getattr(built, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


POOL = (
    [Item(ItemKind.READ, f"{c}{i}1..") for c in "HN" for i in (1, 3, 5)]
    + [Item(ItemKind.BNF, f"{i}.{j}.0.0") for i, j in ((1, 1), (2, 2), (10, 3))]
    + [gender_item("M")]
)
reals = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rule_lists(draw):
    rules = []
    for _ in range(draw(st.integers(0, 30))):
        antecedent = frozenset(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4)))
        consequent = draw(st.sampled_from([it for it in POOL if it not in antecedent]))
        rules.append(AssociationRule(antecedent, consequent, *(draw(reals) for _ in range(5))))
    return rules


class TestRulesReaderOracle:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(rule_lists(), st.sampled_from([20, 200, 1 << 16]))
    def test_written_tables(self, tmp_path, monkeypatch, rules, block):
        monkeypatch.setattr(errors, "_CSV_BLOCK_CHARS", block)
        path = str(tmp_path / "rules.csv")
        write_rules_csv(rules, path)
        assert_bit_equal(read_rules_csv(path), rules_oracle(path))

    def test_worked_example_fixture(self):
        path = str(WORKED_EXAMPLE / "rules.csv")
        assert_bit_equal(read_rules_csv(path), rules_oracle(path))

    @pytest.mark.parametrize("block", [8, 40, 1 << 16])
    def test_hand_edited_file(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(errors, "_CSV_BLOCK_CHARS", block)
        text = (
            "antecedent,consequent,left_support,support,confidence,lift,chi_squared\r\n"
            "B11..,A11..,0.2,0.1,0.5,1.5,2.0\n"
            "\r\n"
            '"B11..|GENDER:F",A11..,1e-3,1_0, 0.5 ,1.5,2.0\r\n'
            "\n"
            "01.2.0.0|B11..,A11..,0.2,0.1,0.5,-0.0,2.0\n"
            "1.2.0.0,GENDER:M,0.2,0.1,0.5,1.5,2.0"
        )
        path = tmp_path / "rules.csv"
        path.write_bytes(text.encode())
        table = read_rules_csv(str(path))
        assert_bit_equal(table, rules_oracle(str(path)))
        assert [r.support for r in table] == [0.1, 10.0, 0.1, 0.1]
        assert math.copysign(1.0, table[2].lift) == -1.0
