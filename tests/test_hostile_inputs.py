"""Every reader of an input file reads it, or raises ParseError or
ConfigError, when one field of a valid input holds a hostile value.

Any other exception, the "none of its rows" AssertionError of a block
check included, would reach the CLI as a traceback.
"""

import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrrefine.errors import ConfigError, ParseError
from adrrefine.events import load
from adrrefine.mining import read_rules_csv, read_rules_json
from adrrefine.signals import load_signal_spec, read_instances_csv
from adrrefine.synth import load_scenario, read_ground_truth

WORKED = Path(__file__).parent / "data" / "worked_example"

HOSTILE = [
    10**400, -(10**400), math.nan, math.inf, -math.inf, True, False, None,
    [1, "a"], [], {"a": 1}, {}, '"', ",", "\n", 'a,"b\nc', "",
]

CSV_VALID = {
    name: (WORKED / name).read_text(encoding="utf-8")
    for name in ("patients.csv", "events.csv", "rules.csv", "instances.csv")
}
CSV_VALID["ground_truth.csv"] = (
    "patient_id,hoi_date,cause\n1,2005-08-01,adr\n2,2001-08-14,confounder\n"
)

JSON_VALID = {
    "rules.json": [
        {"antecedent": ["2.2.0.0", "H27.."], "consequent": "H05..", "left_support": 0.001,
         "support": 2e-05, "confidence": 0.02, "lift": 1.1, "chi_squared": 150},
    ],
    "signal.json": json.loads((WORKED / "signal.json").read_text(encoding="utf-8")),
    "scenario.json": {
        "seed": 42,
        "patient_count": 120,
        "observation_days": 1460,
        "start_date": "2000-01-01",
        "catalog": [{"code_type": "BNF", "code": "5.1.0.0", "daily_rate": 0.0005}],
        "confounder": {
            "antecedent": [["READ", "K55.."]],
            "outcome_code": "N771.",
            "doi_code": "5.1.0.0",
            "prevalence": 0.2,
            "recording_probability": 0.7,
            "activation_probability": 0.5,
            "doi_coprescription_probability": 0.6,
        },
        "adr": {"doi_items": ["5.1.0.0"], "outcome_code": "N772.",
                "reaction_probability": 0.01, "latency_days": [1, 60]},
    },
}

READERS = {
    "patients.csv": lambda d: load(str(d / "patients.csv"), str(d / "events.csv")),
    "events.csv": lambda d: load(str(d / "patients.csv"), str(d / "events.csv")),
    "rules.csv": lambda d: read_rules_csv(str(d / "rules.csv")),
    "instances.csv": lambda d: read_instances_csv(str(d / "instances.csv")),
    "ground_truth.csv": lambda d: read_ground_truth(str(d / "ground_truth.csv")),
    "rules.json": lambda d: read_rules_json(str(d / "rules.json")),
    "signal.json": lambda d: load_signal_spec(str(d / "signal.json")),
    "scenario.json": lambda d: load_scenario(str(d / "scenario.json")),
}


def json_paths(value, at=()):
    """The path of `value` itself and of every value inside it."""
    yield at
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from json_paths(value[key], at + (key,))


def with_value(doc, path, value):
    """A copy of `doc` holding `value` at `path`."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def hostile_csv(data, name: str) -> str:
    """A valid CSV input with one field, the header's included, holding a
    hostile value as text, written through `csv.writer` or joined as is."""
    rows = list(csv.reader(io.StringIO(CSV_VALID[name])))
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    value = data.draw(st.sampled_from(HOSTILE))
    if not isinstance(value, str):
        value = data.draw(st.sampled_from([json.dumps, repr]))(value)
    rows[r][c] = value
    if data.draw(st.booleans()):
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()
    return "".join(",".join(row) + "\n" for row in rows)


def hostile_json(data, name: str) -> str:
    """A valid JSON input with one value, the whole document's included,
    replaced by a hostile value."""
    doc = JSON_VALID[name]
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    return json.dumps(with_value(doc, path, data.draw(st.sampled_from(HOSTILE))))


def read_with(name: str, text: str) -> None:
    """Write the valid inputs with `text` as `name` and read `name`; a
    ParseError or ConfigError counts as a reading."""
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for valid, valid_text in CSV_VALID.items():
            (folder / valid).write_text(valid_text, encoding="utf-8")
        for valid, doc in JSON_VALID.items():
            (folder / valid).write_text(json.dumps(doc), encoding="utf-8")
        (folder / name).write_text(text, encoding="utf-8")
        try:
            READERS[name](folder)
        except (ParseError, ConfigError):
            pass


@pytest.mark.parametrize("name", list(CSV_VALID))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_csv_field(name, data):
    read_with(name, hostile_csv(data, name))


@pytest.mark.parametrize("name", list(JSON_VALID))
@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_json_value(name, data):
    read_with(name, hostile_json(data, name))


def json_loads_message(text: str) -> str:
    """This interpreter's own json.loads message for text. Its wording of
    the integer digit limit differs between Python versions: "(4300)" on
    3.10, "(4300 digits)" on 3.11."""
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("json.loads accepted the text")


@pytest.mark.parametrize("name", list(JSON_VALID))
@pytest.mark.parametrize(
    "text, message",
    [
        ("1" * 5000, json_loads_message("1" * 5000)),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ],
)
def test_json_the_parser_rejects(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        READERS[name](tmp_path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)
