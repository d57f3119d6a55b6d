"""The per-store code table: each distinct event code is parsed once, and
each code and item, the gender items included, is numbered once; and the
pipeline keeps patients as columns, building no `PatientInfo`."""

import dataclasses
import datetime as dt
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from adrrefine.baskets import (
    BasketDatabase, build_database, pre_outcome_basket, pre_outcome_items,
)
from adrrefine.codes import (
    GENDERS, BnfCode, ItemKind, ReadCode, gender_item, normalize_item, parse_bnf, parse_code,
    parse_read,
)
from adrrefine.errors import ParseError
from adrrefine.events import (
    EventRecord,
    EventStore,
    PatientInfo,
    apply_prescription_exclusions,
    eligible_patients,
    load,
)
from adrrefine.mining import mine_rules
from adrrefine.refine import refine, rule_consequent
from adrrefine.signals import SignalSpec, ab_ratio, exposure_count, find_instances
from adrrefine.synth import (
    CatalogItem, PlantedConfounder, ScenarioConfig, generate, generate_store,
)

from conftest import write_cohort

SPEC = SignalSpec(doi=frozenset([parse_bnf("5.1.0.0")]), hoi=parse_read("N771."))

SCENARIO = ScenarioConfig(
    seed=7,
    patient_count=300,
    observation_days=1460,
    catalog=(
        CatalogItem("BNF", "5.1.0.0", 0.0006),
        CatalogItem("BNF", "5.1.2.0", 0.0003),
        CatalogItem("READ", "C10..", 0.0005),
        CatalogItem("READ", "N771z", 0.0002),
        CatalogItem("READ", "H33..", 0.0004),
    ),
    confounder=PlantedConfounder(
        antecedent=(("READ", "K55.."),),
        outcome_code="N771.",
        doi_code="5.1.0.0",
        prevalence=0.3,
        recording_probability=0.7,
        activation_probability=0.6,
        doi_coprescription_probability=0.6,
    ),
)


def store_with(records: list[tuple[str, str]]) -> EventStore:
    """An in-memory store: one patient, one event per (code_type, code)."""
    info = PatientInfo("p1", "F", 1960, dt.date(2000, 1, 1))
    day = dt.date(2005, 1, 1)
    events = tuple(
        EventRecord("p1", day + dt.timedelta(days=k), t, c) for k, (t, c) in enumerate(records)
    )
    return EventStore({"p1": info}, {"p1": events})


class TestParseCode:
    def test_dispatch(self):
        assert parse_code("READ", "A11zz") == parse_read("A11zz")
        assert parse_code("BNF", "5.1.12.0") == parse_bnf("5.1.12.0")

    def test_unknown_code_type_names_the_type(self):
        with pytest.raises(ParseError, match="code_type must be READ or BNF: 'ICD'"):
            parse_code("ICD", "A11..")
        with pytest.raises(ParseError, match="code_type must be READ or BNF: 'ICD'"):
            normalize_item("ICD", "A11..")


class TestCodeTable:
    def test_one_entry_per_distinct_code(self, worked_store):
        distinct = {(ev.code_type, ev.code) for ev in worked_store.iter_events()}
        table = worked_store.code_table
        assert set(table) == distinct
        for (code_type, code), (parsed, item) in table.items():
            assert parsed == parse_code(code_type, code)
            assert item == normalize_item(code_type, code)

    def test_loaded_table_equals_lazily_built_table(self, worked_store):
        rebuilt = EventStore(worked_store.patients, worked_store.events, worked_store.db_end_date)
        assert "code_table" not in vars(rebuilt)
        assert rebuilt.code_table == worked_store.code_table
        assert rebuilt == worked_store

    @pytest.mark.parametrize(
        "use",
        [
            lambda store: pre_outcome_basket(store, "p1", dt.date.max, include_same_day=True),
            lambda store: exposure_count(SPEC.doi, store),
            lambda store: find_instances(SPEC, store),
            lambda store: ab_ratio(SPEC, store),
        ],
        ids=["basket", "exposure", "instances", "ab_ratio"],
    )
    def test_invalid_record_in_code_built_store_fails_on_first_use(self, use):
        # The store reads its records when it is built, so an invalid
        # record fails there, before any stage can use the store; the same
        # store with the record mended serves the stage.
        with pytest.raises(ParseError, match="'N77'"):
            store_with([("BNF", "5.1.0.0"), ("READ", "N77")])
        use(store_with([("BNF", "5.1.0.0"), ("READ", "N77..")]))

    def test_unknown_code_type_in_code_built_store(self):
        with pytest.raises(ParseError, match="code_type must be READ or BNF"):
            store_with([("ICD", "N771.")])

    def test_bad_code_after_valid_repeats_keeps_its_line(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2001-01-01,READ,A11..", "p1,2001-02-01,READ,A11..", "p1,2001-03-01,READ,A1.1."],
        )
        with pytest.raises(
            ParseError, match=r":4: read code has a dot before a non-dot character: 'A1\.1\.'"
        ):
            load(patients, events)


def doubled_cohort(src: Path, dst: Path) -> tuple[str, str]:
    """The same patients and codes with every event row written twice."""
    dst.mkdir()
    (dst / "patients.csv").write_bytes((src / "patients.csv").read_bytes())
    header, *rows = (src / "events.csv").read_text().splitlines()
    (dst / "events.csv").write_text("\n".join([header, *(r for r in rows for _ in (0, 1))]) + "\n")
    return str(dst / "patients.csv"), str(dst / "events.csv")


def code_constructions(monkeypatch, patients: str, events: str) -> Counter:
    """ReadCode/BnfCode constructions over load, baskets, mining and refine
    of a cohort. Load parses each distinct code; refine's code masks
    compare prefixes and construct none."""
    counts: Counter = Counter()
    for cls in (ReadCode, BnfCode):

        def counting(self, original=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    store = load(patients, events)
    db = build_database(store)
    rules = mine_rules(db, rule_consequent(SPEC.hoi), workers=1)
    refine(SPEC, rules, apply_prescription_exclusions(store))
    monkeypatch.undo()
    return counts


def test_pipeline_builds_no_patient_info(monkeypatch, tmp_path):
    """Patients stay columns from load through refine; `store.patients`
    is the only place that builds `PatientInfo`s."""
    generate(SCENARIO, str(tmp_path))
    built: Counter = Counter()

    def counting(self, *args, original=PatientInfo.__init__):
        built["PatientInfo"] += 1
        original(self, *args)

    monkeypatch.setattr(PatientInfo, "__init__", counting)
    store = load(str(tmp_path / "patients.csv"), str(tmp_path / "events.csv"))
    excluded = apply_prescription_exclusions(store)
    rules = mine_rules(build_database(store), rule_consequent(SPEC.hoi), workers=1)
    instances = find_instances(SPEC, excluded)
    report = refine(SPEC, rules, excluded)
    assert report.instance_count == len(instances) > 0 and report.expected_count > 0
    assert built["PatientInfo"] == 0
    assert len(store.patients) == built["PatientInfo"] == SCENARIO.patient_count


def test_parse_work_scales_with_distinct_codes_not_events(monkeypatch, tmp_path):
    generate(SCENARIO, str(tmp_path / "once"))
    once = (str(tmp_path / "once" / "patients.csv"), str(tmp_path / "once" / "events.csv"))
    twice = doubled_cohort(tmp_path / "once", tmp_path / "twice")
    assert len(load(*twice).code_table) == len(load(*once).code_table)
    assert load(*twice).event_count == 2 * load(*once).event_count

    single = code_constructions(monkeypatch, *once)
    double = code_constructions(monkeypatch, *twice)
    assert single["ReadCode"] > 0 and single["BnfCode"] > 0
    assert double == single


def synth_store(seed: int, gender: str | None = None) -> EventStore:
    """The scenario's store at `seed`; with `gender`, every patient has it."""
    store, _ = generate_store(dataclasses.replace(SCENARIO, seed=seed))
    if gender is None:
        return store
    patients = {pid: dataclasses.replace(p, gender=gender) for pid, p in store.patients.items()}
    return EventStore(patients, store.events, store.db_end_date)


class TestItemsNumberedOnce:
    def test_gender_ids_index_the_gender_items(self, worked_store):
        items = worked_store.code_table.mining_items
        assert [items[i] for i in worked_store.code_table.gender_id] == list(
            map(gender_item, GENDERS)
        )
        assert list(items) == sorted(items, key=lambda it: it.token)

    @pytest.mark.parametrize(
        "seed, gender", [(51001, None), (52001, None), (51001, "M")], ids=["51001", "52001", "all_M"]
    )
    def test_database_equals_whole_history_baskets(self, seed, gender):
        # The code table holds both gender items; an all-M cohort's
        # database drops the GENDER:F that no basket holds.
        store = synth_store(seed, gender)
        eligible = eligible_patients(store)
        whole = BasketDatabase([
            (pid, pre_outcome_basket(store, pid, dt.date.max, include_same_day=True))
            for pid in store.patients
            if pid in eligible
        ])
        db = build_database(store)
        assert db.pids == whole.pids and db.m > 0
        assert db.items == whole.items
        assert len(db.tid_lists) == len(whole.tid_lists)
        assert all(map(np.array_equal, db.tid_lists, whole.tid_lists))
        assert np.array_equal(db.counts, whole.counts)
        if gender is not None:
            assert gender_item("F") in store.code_table.mining_items
            assert gender_item("F") not in db and gender_item("M") in db

    def test_each_history_has_one_gender_row(self):
        store = synth_store(51001)
        pids = list(store.patients)[:40]
        pids += pids[:1] * 2  # the first patient twice more
        cutoffs = [dt.date(2002, 1, 1)] * 40 + [dt.date(2001, 1, 1), dt.date.max]
        history, ids = pre_outcome_items(store, pids, cutoffs)
        items = store.code_table.mining_items
        genders = [
            (k, items[i]) for k, i in zip(history.tolist(), ids.tolist())
            if items[i].kind is ItemKind.GENDER
        ]
        assert sorted(genders, key=lambda row: row[0]) == [
            (k, gender_item(store.patients[pid].gender)) for k, pid in enumerate(pids)
        ]
