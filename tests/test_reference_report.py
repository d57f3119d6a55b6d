"""The whole pipeline against `oracles.reference_report` on tiny cohorts.

Each drawn cohort goes through the library (records -> store ->
baskets -> all rules -> exclusions -> refine) and through the record-
by-record reference, for every window in `WINDOWS` and both readings of
the outcome day; their report payloads must be equal field for field.
A smaller draw runs the command line too, `mine` then `refine` through
`rules.json` (whose floats are exact), and its report.json must equal
the library's byte for byte.
"""

import datetime as dt
import json
import tempfile
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from adrrefine.baskets import build_database
from adrrefine.cli import PipelineConfig, main
from adrrefine.codes import parse_bnf, parse_read
from adrrefine.errors import DomainError
from adrrefine.events import EventRecord, EventStore, PatientInfo, apply_prescription_exclusions
from adrrefine.mining import MiningConstraints, mine_all_rules
from adrrefine.refine import refine, report_to_dict, write_report_json
from adrrefine.signals import SignalSpec

from oracles import add_months_oracle, family_oracle, outcome_oracle, reference_report

# Eight codes: drug items 5.1, 5.2 and 1.1, diagnosis items N77, H05 and A11.
CODES = [
    ("BNF", "5.1.1.0"), ("BNF", "5.1.2.3"), ("BNF", "5.2.1.0"), ("BNF", "1.1.0.0"),
    ("READ", "N771."), ("READ", "N77z."), ("READ", "H05z."), ("READ", "A11zz"),
]
# Families at levels 1, 2 and 4; outcomes at levels 3 to 5, B57 never recorded.
DOI_POOL = ["5.0.0.0", "5.1.0.0", "5.1.2.3", "1.1.0.0"]
HOI_POOL = ["N771.", "N77..", "N77z.", "H05z.", "A11zz", "B57.."]
WINDOWS = [(1, 30), (30, 60), (1, 60), (31, 400), (1, 3650)]
# Month-end registrations make the month arithmetic clamp.
REGISTRATIONS = [dt.date(2002, 1, 31), dt.date(2003, 2, 28), dt.date(2003, 7, 15)]
END = dt.date(2006, 12, 31)
# Days 30 apart, so the gaps between them meet the windows' ends; each
# patient's events fall on eight consecutive ones, or on edge days.
LATTICE = [dt.date(2002, 1, 1) + dt.timedelta(days=30 * k) for k in range(62)]


@st.composite
def cases(draw):
    """(patients, events, spec, config) of a cohort of at most 16 patients."""
    config = PipelineConfig(
        min_left_support=draw(st.sampled_from([0.001, 0.2, 0.5, 0.9])),
        min_confidence=draw(st.sampled_from([0.01, 0.5, 1.0])),
        max_antecedent=draw(st.integers(1, 3)),
        lift_threshold=draw(st.sampled_from([0.5, 1.0, 1.5])),
        exclusion_months=draw(st.integers(0, 14)),
        end_buffer_days=draw(st.integers(0, 40)),
        min_active_months=draw(st.integers(0, 48)),
        include_same_day=draw(st.booleans()),
    )
    spec = SignalSpec(
        doi=frozenset(map(parse_bnf, draw(st.sets(st.sampled_from(DOI_POOL), min_size=1, max_size=2)))),
        hoi=parse_read(draw(st.sampled_from(HOI_POOL))),
        window=draw(st.sampled_from(WINDOWS)),
        name="s",
    )
    # The signal's own codes are drawn twice as often as the others.
    drugs = [c for c in CODES[:4] if family_oracle(parse_bnf(c[1]), spec.doi)] + CODES[:4]
    diagnoses = [c for c in CODES[4:] if outcome_oracle(*c, spec.hoi)] + CODES[4:]
    patients, events = [], []
    for k in range(draw(st.integers(1, 16))):
        pid = f"p{k:02d}"
        reg = draw(st.sampled_from(REGISTRATIONS))
        patients.append(PatientInfo(pid, draw(st.sampled_from("MF")), 1950, reg))
        cutoff = add_months_oracle(reg, config.exclusion_months)
        buffer = END - dt.timedelta(days=config.end_buffer_days)
        edges = [
            reg, cutoff, *(cutoff + dt.timedelta(days=s) for s in (-1, 1)),
            buffer, *(buffer + dt.timedelta(days=s) for s in (-1, 1)), END,
            add_months_oracle(reg, config.min_active_months),
        ]
        # Eight lattice days from about the exclusion cutoff on.
        base = sum(d < cutoff for d in LATTICE) - 2 + draw(st.integers(0, 6))
        days = [d for d in edges + LATTICE[max(base, 0) : base + 8] if reg <= d <= END]
        # A drug, a diagnosis and up to three more codes of any kind.
        codes = [draw(st.sampled_from(drugs)), draw(st.sampled_from(diagnoses))]
        codes += draw(st.lists(st.sampled_from(CODES), max_size=3))
        for _ in range(draw(st.integers(0, 8))):
            day = draw(st.sampled_from(days))
            for code in draw(st.lists(st.sampled_from(codes), min_size=1, max_size=3)):
                events.append(EventRecord(pid, day, *code))
    return patients, events, spec, config


def library_rules(patients, events, config):
    """The store of the cohort's records and every rule mined from it."""
    histories = {p.patient_id: [] for p in patients}
    for e in events:
        histories[e.patient_id].append(e)
    store = EventStore({p.patient_id: p for p in patients}, histories)
    constraints = MiningConstraints(
        config.min_left_support, config.min_confidence, config.max_antecedent
    )
    return store, mine_all_rules(build_database(store, config.min_active_months), constraints)


def library_report(store, rules, spec, config):
    """`refine` of the signal over the store less its exclusions."""
    excluded = apply_prescription_exclusions(store, config.exclusion_months, config.end_buffer_days)
    return refine(
        spec, rules, excluded,
        lift_threshold=config.lift_threshold, include_same_day=config.include_same_day,
    )


def outcome(run, *args):
    """`run(*args)`, or DomainError when it raises one."""
    try:
        return run(*args)
    except DomainError:
        return DomainError


def test_library_report_equals_reference():
    seen = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cases())
    def check(case):
        patients, events, spec, config = case
        mined = outcome(library_rules, patients, events, config)
        # Every window and both readings of the outcome day: few cohorts
        # have an outcome on the edge of the drawn window, or a same-day
        # item that decides a match.
        reports = {}
        for window, same_day in product(WINDOWS, (False, True)):
            variant = replace(spec, window=window), replace(config, include_same_day=same_day)
            got = mined if mined is DomainError else outcome(library_report, *mined, *variant)
            want = outcome(reference_report, patients, events, *variant)
            if got is DomainError or want is DomainError:
                assert got is want
                seen["undefined"] += 1
                return
            got = report_to_dict(got)
            assert got == want
            assert list(got) == list(want)
            reports[window, same_day] = want
        seen["reported"] += 1
        seen["same_day_decides"] += any(reports[w, False] != reports[w, True] for w in WINDOWS)
        seen["window_edge"] += sum(
            (dt.date.fromisoformat(i["hoi_date"]) - dt.date.fromisoformat(i["doi_date"])).days in w
            for w in WINDOWS for i in reports[w, False]["instances"]
        )
        seen["on_cutoff"] += any(
            e.code_type == "BNF"
            and e.date == add_months_oracle(p.registration_date, config.exclusion_months)
            for p in patients for e in events if e.patient_id == p.patient_id
        )
        seen["inactive"] += any(not eligible(p, events, config) for p in patients)
        # Instances: those of outcomes with no rule, expected ones, and the rest.
        for want in reports.values():
            seen["no_rule"] += want["instance_count"] * (want["hoi_rule_count"] == 0)
            seen["expected"] += want["expected_count"]
            seen["unexpected"] += want["instance_count"] - want["expected_count"]

    check()
    reached = ["same_day_decides", "window_edge", "on_cutoff", "inactive", "no_rule", "expected"]
    assert all(seen[case] for case in [*reached, "unexpected", "undefined"]), seen


def eligible(patient, events, config):
    """Whether the patient's events span `min_active_months` months."""
    days = sorted(e.date for e in events if e.patient_id == patient.patient_id)
    months = config.min_active_months
    return months <= 0 or bool(days) and add_months_oracle(days[0], months) <= days[-1]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases())
def test_command_line_report_equals_library(case):
    patients, events, spec, config = case
    library = outcome(library_rules, patients, events, config)
    if library is not DomainError:
        library = outcome(library_report, *library, spec, config)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "patients.csv").write_text(
            "patient_id,gender,year_of_birth,registration_date\n"
            + "".join(f"{p.patient_id},{p.gender},1950,{p.registration_date}\n" for p in patients)
        )
        (tmp / "events.csv").write_text(
            "patient_id,date,code_type,code\n"
            + "".join(f"{e.patient_id},{e.date},{e.code_type},{e.code}\n" for e in events)
        )
        (tmp / "signal.json").write_text(json.dumps({
            "name": spec.name, "doi_items": sorted(map(str, spec.doi)),
            "hoi_code": str(spec.hoi), "window": list(spec.window),
        }))
        cohort = ["--patients", str(tmp / "patients.csv"), "--events", str(tmp / "events.csv")]
        mine = main([
            "mine", *cohort, "--out", str(tmp / "rules.json"),
            "--min-left-support", repr(config.min_left_support),
            "--min-confidence", repr(config.min_confidence),
            "--max-antecedent", str(config.max_antecedent),
            "--min-active-months", str(config.min_active_months),
        ])
        if mine:
            assert (mine, library) == (1, DomainError)
            return
        code = main([
            "refine", *cohort, "--rules", str(tmp / "rules.json"),
            "--spec", str(tmp / "signal.json"), "--out", str(tmp / "report"),
            "--lift-threshold", repr(config.lift_threshold),
            "--exclusion-months", str(config.exclusion_months),
            "--end-buffer-days", str(config.end_buffer_days),
            *(["--include-same-day"] if config.include_same_day else []),
        ])
        if code:
            assert (code, library) == (1, DomainError)
            return
        write_report_json(library, str(tmp / "library.json"))
        assert (tmp / "report" / "report.json").read_bytes() == (tmp / "library.json").read_bytes()
