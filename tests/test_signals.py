import calendar
import datetime as dt
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrrefine import signals as signals_module
from adrrefine.baskets import build_database, pre_outcome_basket
from adrrefine.codes import (
    BNF_PARTS,
    READ_LENGTH,
    BnfCode,
    Item,
    ItemKind,
    ReadCode,
    normalize_item,
    parse_bnf,
    parse_read,
)
from adrrefine.errors import ConfigError, ParseError
from adrrefine.events import (
    EventRecord,
    EventStore,
    PatientInfo,
    apply_prescription_exclusions,
    eligible_patients,
    load,
)
from adrrefine.signals import (
    SignalInstance,
    SignalSpec,
    ab_ratio,
    doi_matches,
    exposure_count,
    find_instances,
    load_signal_spec,
    read_instances_csv,
    write_instances_csv,
)

from conftest import write_cohort
from oracles import family_oracle, outcome_code_oracle, outcome_oracle

DOI = frozenset([parse_bnf("1.1.0.0")])


def make_spec(**kwargs) -> SignalSpec:
    defaults = dict(doi=DOI, hoi=parse_read("H05.."), window=(1, 60))
    defaults.update(kwargs)
    return SignalSpec(**defaults)


DRUG_POOL = ["1.1.0.0", "1.1.2.0", "1.1.2.3", "1.1.3.0", "1.2.0.0", "1.2.4.1", "2.1.0.0"]
DIAGNOSIS_POOL = ["H05..", "H05z.", "H05zz", "H05za", "H051.", "H06..", "B57.."]
# Family entries at levels 1-4, and a mixed-level family.
FAMILIES = [("1.0.0.0",), ("1.1.0.0",), ("1.1.2.0",), ("1.1.2.3",), ("1.1.2.3", "1.2.0.0")]
# Outcome queries at levels 3-5.
OUTCOME_QUERIES = ["H05..", "H05z.", "H05zz"]


def random_store(rng: random.Random, n_patients: int = 40) -> EventStore:
    """An in-memory store with repeated same-day prescriptions (of one code
    and of siblings under one level-2 item) and outcomes recorded on a
    prescription day."""
    base = dt.date(2004, 1, 1)
    patients, events = {}, {}
    for i in range(n_patients):
        pid = f"p{i}"
        patients[pid] = PatientInfo(pid, "F", 1960, dt.date(2000, 1, 1))
        evs = []
        for _ in range(rng.randint(0, 5)):
            day = base + dt.timedelta(days=rng.randint(0, 400))
            code = rng.choice(DRUG_POOL)
            evs += [EventRecord(pid, day, "BNF", code)] * rng.randint(1, 3)
            sibling = [c for c in DRUG_POOL if c != code and c[:3] == code[:3]]
            if sibling and rng.random() < 0.3:
                evs.append(EventRecord(pid, day, "BNF", rng.choice(sibling)))
            if rng.random() < 0.3:
                evs.append(EventRecord(pid, day, "READ", rng.choice(DIAGNOSIS_POOL)))
        for _ in range(rng.randint(0, 5)):
            day = base + dt.timedelta(days=rng.randint(0, 400))
            evs.append(EventRecord(pid, day, "READ", rng.choice(DIAGNOSIS_POOL)))
        evs.sort(key=lambda e: e.date)
        events[pid] = tuple(evs)
    return EventStore(patients, events)


def oracle_specs():
    for family in FAMILIES:
        for query in OUTCOME_QUERIES:
            for window in ((1, 60), (3, 20)):
                doi = frozenset(parse_bnf(c) for c in family)
                yield make_spec(doi=doi, hoi=parse_read(query), window=window)


def day_scan_ab(spec: SignalSpec, store) -> tuple[int, int]:
    """Walk every day offset in the window per distinct prescription."""
    after = before = 0
    for pid in store.patients:
        events = store.patient_events(pid)
        hoi_days = {e.date for e in events if outcome_oracle(e.code_type, e.code, spec.hoi)}
        seen = set()
        for e in events:
            if e.code_type != "BNF" or not family_oracle(parse_bnf(e.code), spec.doi):
                continue
            key = (e.date, str(parse_bnf(e.code).parts[:2]))
            if key in seen:
                continue
            seen.add(key)
            offsets = range(spec.window[0], spec.window[1] + 1)
            if any(e.date + dt.timedelta(days=k) in hoi_days for k in offsets):
                after += 1
            if any(e.date - dt.timedelta(days=k) in hoi_days for k in offsets):
                before += 1
    return after, before


def record_scan_first_dates(store, doi) -> dict[str, dt.date]:
    """Each exposed patient's earliest family prescription, record by record."""
    first = {}
    for pid in store.patients:
        dates = [
            e.date
            for e in store.patient_events(pid)
            if e.code_type == "BNF" and family_oracle(parse_bnf(e.code), doi)
        ]
        if dates:
            first[pid] = min(dates)
    return first


def record_scan_instances(spec: SignalSpec, store) -> list[SignalInstance]:
    start, end = spec.window
    instances = []
    for pid, doi_date in record_scan_first_dates(store, spec.doi).items():
        hits = [
            e.date
            for e in store.patient_events(pid)
            if outcome_oracle(e.code_type, e.code, spec.hoi)
            and start <= (e.date - doi_date).days <= end
        ]
        if hits:
            instances.append(SignalInstance(pid, doi_date, min(hits)))
    return sorted(instances, key=lambda inst: inst.patient_id)


class TestSpecValidation:
    def test_window_must_start_at_one(self):
        with pytest.raises(ConfigError):
            make_spec(window=(0, 60))

    def test_window_order(self):
        with pytest.raises(ConfigError):
            make_spec(window=(10, 5))

    @pytest.mark.parametrize("window", [(1.5, 60), (1, 60.0), (True, 60), (1, 2, 3), ("1", 60)])
    def test_window_must_be_two_integer_days(self, window):
        with pytest.raises(ConfigError, match="window must be two integer days"):
            make_spec(window=window)

    def test_numpy_integer_window(self):
        assert make_spec(window=(np.int64(2), np.int32(30))).window == (2, 30)

    def test_doi_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            make_spec(doi=frozenset())

    @pytest.mark.parametrize("doi", [
        frozenset([parse_read("C10..")]),
        frozenset([parse_bnf("1.1.0.0"), parse_read("C10..")]),
        frozenset(["1.1.0.0"]),
        "1.1.0.0",
        {parse_bnf("1.1.0.0")},
        parse_bnf("1.1.0.0"),
        None,
    ])
    def test_doi_must_be_a_frozenset_of_drug_codes(self, doi):
        with pytest.raises(ConfigError, match="^doi must be a non-empty frozenset of parsed drug"):
            make_spec(doi=doi)

    @pytest.mark.parametrize("hoi", [parse_bnf("5.1.0.0"), "H05..", None])
    def test_hoi_must_be_a_diagnosis_code(self, hoi):
        with pytest.raises(ConfigError, match="^hoi must be a parsed diagnosis code: "):
            make_spec(hoi=hoi)

    def test_load_from_json(self, worked_example_dir):
        spec = load_signal_spec(str(worked_example_dir / "signal.json"))
        assert spec.doi == DOI
        assert str(spec.hoi) == "H05.."
        assert spec.window == (1, 60)
        assert spec.label == "HOI5"

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"hoi_code": "H05.."}))
        with pytest.raises(ParseError):
            load_signal_spec(str(path))


def outcome_matches(code_type: str, code: str, query: str) -> bool:
    """Whether one record, nine days after a family prescription, makes
    an instance of the outcome query."""
    patients = {"p": PatientInfo("p", "M", 1950, dt.date(2000, 1, 1))}
    events = {"p": (
        EventRecord("p", dt.date(2020, 1, 1), "BNF", "1.1.0.0"),
        EventRecord("p", dt.date(2020, 1, 10), code_type, code),
    )}
    found = bool(find_instances(make_spec(hoi=parse_read(query)), EventStore(patients, events)))
    assert found == outcome_oracle(code_type, code, parse_read(query))
    return found


class TestHoiMatching:
    def test_exact_match(self):
        assert outcome_matches("READ", "B572.", "B572.")

    def test_descendant_matches(self):
        assert outcome_matches("READ", "B572z", "B572.")

    def test_ancestor_does_not_match(self):
        assert not outcome_matches("READ", "B57..", "B572.")

    def test_prescriptions_never_match(self):
        assert not outcome_matches("BNF", "1.1.0.0", "B572.")

    def test_level_three_query_catches_family(self):
        for code in ("AB2..", "AB21.", "AB2zz"):
            assert outcome_matches("READ", code, "AB2..")


class TestDoiMatching:
    def test_family_entry_matches_descendants(self):
        family = frozenset([parse_bnf("1.1.0.0")])
        assert doi_matches(parse_bnf("1.1.2.3"), family)
        assert doi_matches(parse_bnf("1.1.0.0"), family)
        assert not doi_matches(parse_bnf("1.2.0.0"), family)

    def test_exact_entry_matches_one_code(self):
        exact = frozenset([parse_bnf("1.1.2.3")])
        assert doi_matches(parse_bnf("1.1.2.3"), exact)
        assert not doi_matches(parse_bnf("1.1.2.4"), exact)
        assert not doi_matches(parse_bnf("1.1.0.0"), exact)


# Codes at every level, over few symbols so that prefixes are often shared.
bnf_codes = st.integers(1, BNF_PARTS).flatmap(
    lambda k: st.tuples(*[st.integers(1, 3)] * k).map(
        lambda head: BnfCode(head + (0,) * (BNF_PARTS - len(head)))
    )
)
read_codes = st.integers(1, READ_LENGTH).flatmap(
    lambda k: st.text("AB1z", min_size=k, max_size=k).map(
        lambda head: ReadCode(head + "." * (READ_LENGTH - len(head)))
    )
)


def code_store(codes) -> EventStore:
    """One patient with one event of each code, so code ids follow `codes`."""
    patients = {"p": PatientInfo("p", "F", 1960, dt.date(2000, 1, 1))}
    day = dt.date(2004, 1, 1)
    events = tuple(
        EventRecord("p", day, "BNF" if isinstance(c, BnfCode) else "READ", str(c)) for c in codes
    )
    return EventStore(patients, {"p": events})


class TestPrefixMasks:
    """The per-code masks compare prefixes; they must equal the truncation
    rule they stand for, for codes and queries at every level."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(code=bnf_codes, doi=st.frozensets(bnf_codes, min_size=1, max_size=3))
    def test_doi_matches_is_truncation(self, code, doi):
        assert doi_matches(code, doi) == family_oracle(code, doi)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        codes=st.lists(st.one_of(read_codes, bnf_codes), min_size=1, max_size=12, unique=True),
        doi=st.frozensets(bnf_codes, min_size=1, max_size=3),
        hoi=read_codes,
    )
    def test_masks_are_truncation(self, codes, doi, hoi):
        """Per code of either system, and over the rows of a store with one
        row per code."""
        store = code_store(codes)
        parsed = [c for c, _ in store.code_table.values()]
        assert parsed == codes
        for query, matches, want in (
            (hoi, signals_module.outcome_matches,
             [isinstance(c, ReadCode) and outcome_code_oracle(c, hoi) for c in codes]),
            (doi, doi_matches, [isinstance(c, BnfCode) and family_oracle(c, doi) for c in codes]),
        ):
            assert [matches(c, query) for c in codes] == want
            rows = signals_module._rows(store, query, matches)
            assert rows.tolist() == np.flatnonzero(np.array(want, bool)[store.columns.code]).tolist()


class TestFirstDoiDate:
    """An instance's drug date is the patient's first family prescription."""

    def test_worked_example_patient_one(self, worked_store):
        instances = find_instances(make_spec(window=(1, 3650)), worked_store)
        (inst,) = [i for i in instances if i.patient_id == "1"]
        assert inst.doi_date == dt.date(2003, 6, 5)

    def test_never_prescribed(self, tmp_path):
        patients, events = write_cohort(
            tmp_path, ["p1,M,1950,2000-01-01"], ["p1,2001-01-01,READ,A11..", "p1,2001-02-01,READ,H05.."]
        )
        store = load(patients, events)
        assert exposure_count(DOI, store) == 0
        assert find_instances(make_spec(window=(1, 3650)), store) == []

    def test_earliest_of_two(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2003-01-01,BNF,1.1.2.0", "p1,2001-06-01,BNF,1.1.0.0", "p1,2003-06-01,READ,H05.."],
        )
        (inst,) = find_instances(make_spec(window=(1, 3650)), load(patients, events))
        assert inst.doi_date == dt.date(2001, 6, 1)


class TestAbRatio:
    def test_worked_example(self, worked_store):
        res = ab_ratio(make_spec(), worked_store)
        assert (res.after_count, res.before_count) == (3, 0)
        assert res.ratio == 3.0

    def test_zero_before_keeps_after_count(self, tmp_path):
        rows = []
        for i in range(5):
            rows.append(f"p{i},2005-01-01,BNF,1.1.0.0")
            rows.append(f"p{i},2005-01-15,READ,H05..")
        patients, events = write_cohort(
            tmp_path, [f"p{i},M,1950,2000-01-01" for i in range(5)], rows
        )
        res = ab_ratio(make_spec(), load(patients, events))
        assert (res.after_count, res.before_count, res.ratio) == (5, 0, 5.0)

    def test_simple_division(self, tmp_path):
        rows = []
        patients_rows = []
        for i in range(10):
            patients_rows.append(f"a{i},M,1950,2000-01-01")
            rows.append(f"a{i},2005-01-10,BNF,1.1.0.0")
            rows.append(f"a{i},2005-01-20,READ,H05..")
        for i in range(5):
            patients_rows.append(f"b{i},M,1950,2000-01-01")
            rows.append(f"b{i},2005-01-20,BNF,1.1.0.0")
            rows.append(f"b{i},2005-01-10,READ,H05..")
        res = ab_ratio(make_spec(), load(*write_cohort(tmp_path, patients_rows, rows)))
        assert (res.after_count, res.before_count, res.ratio) == (10, 5, 2.0)

    def test_same_day_prescriptions_count_once_per_level_two_item(self, tmp_path):
        rows = [
            "p1,2005-01-01,BNF,1.1.2.0", "p1,2005-01-01,BNF,1.1.3.0",  # one level-2 item
            "p1,2005-01-01,BNF,1.2.0.0", "p1,2005-01-01,BNF,1.2.0.0",  # and another
            "p1,2005-01-11,READ,H05..",
        ]
        store = load(*write_cohort(tmp_path, ["p1,M,1950,2000-01-01"], rows))
        res = ab_ratio(make_spec(doi=frozenset([parse_bnf("1.0.0.0")])), store)
        assert (res.after_count, res.before_count) == (2, 0)

    def test_unprescribed_doi(self, worked_store):
        res = ab_ratio(make_spec(doi=frozenset([parse_bnf("9.9.0.0")])), worked_store)
        assert (res.after_count, res.before_count, res.ratio) == (0, 0, 0.0)

    def test_matches_day_scan_oracle(self, worked_store, tmp_path):
        rng = random.Random(50)
        patients_rows = [f"p{i},M,1950,2000-01-01" for i in range(40)]
        rows = []
        base = dt.date(2004, 1, 1)
        for i in range(40):
            for _ in range(rng.randint(0, 4)):
                d = base + dt.timedelta(days=rng.randint(0, 900))
                rows.append(f"p{i},{d},BNF,1.1.{rng.randint(0, 3)}.0".replace(".0.0", ".0.0"))
            for _ in range(rng.randint(0, 4)):
                d = base + dt.timedelta(days=rng.randint(0, 900))
                rows.append(f"p{i},{d},READ,H05{rng.choice('.z')}.".replace("..", ".."))
        store = load(*write_cohort(tmp_path, patients_rows, rows))
        spec = make_spec()
        res = ab_ratio(spec, store)
        assert (res.after_count, res.before_count) == day_scan_ab(spec, store)

        # Extra inputs: in-memory stores over family and outcome levels.
        for seed in (51, 52, 53):
            store = random_store(random.Random(seed))
            for spec in oracle_specs():
                res = ab_ratio(spec, store)
                assert (res.after_count, res.before_count) == day_scan_ab(spec, store), spec


class TestFindInstances:
    def test_worked_example_window_hits(self, worked_store):
        instances = find_instances(make_spec(), worked_store)
        assert instances == [
            SignalInstance("2", dt.date(2001, 6, 28), dt.date(2001, 8, 14)),
            SignalInstance("3", dt.date(2010, 3, 21), dt.date(2010, 3, 22)),
            SignalInstance("4", dt.date(2011, 1, 1), dt.date(2011, 1, 5)),
        ]

    def test_same_day_outcome_not_an_instance(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2005-01-01,BNF,1.1.0.0", "p1,2005-01-01,READ,H05.."],
        )
        assert find_instances(make_spec(), load(patients, events)) == []

    def test_outcome_past_window_end(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            ["p1,2005-01-01,BNF,1.1.0.0", "p1,2005-03-03,READ,H05.."],  # gap 61
        )
        assert find_instances(make_spec(), load(patients, events)) == []

    def test_earliest_qualifying_outcome_wins(self, tmp_path):
        patients, events = write_cohort(
            tmp_path,
            ["p1,M,1950,2000-01-01"],
            [
                "p1,2005-01-01,BNF,1.1.0.0",
                "p1,2005-01-20,READ,H05..",
                "p1,2005-02-10,READ,H05..",
            ],
        )
        (inst,) = find_instances(make_spec(), load(patients, events))
        assert inst.hoi_date == dt.date(2005, 1, 20)

    def test_window_widening_only_adds(self, worked_store):
        narrow = set(find_instances(make_spec(window=(1, 10)), worked_store))
        wide = set(find_instances(make_spec(window=(1, 60)), worked_store))
        assert narrow <= wide

    def test_instances_satisfy_window_invariant(self, worked_store):
        spec = make_spec(window=(1, 30))
        for inst in find_instances(spec, worked_store):
            gap = (inst.hoi_date - inst.doi_date).days
            assert spec.window[0] <= gap <= spec.window[1]

    def test_instance_count_bounded_by_exposure(self, worked_store):
        spec = make_spec()
        assert len(find_instances(spec, worked_store)) <= exposure_count(spec.doi, worked_store)


class TestRecordScanOracle:
    """Exposures and instances (whose drug date is the first prescription)
    against per-record scans over `doi_matches` and `outcome_oracle`, at
    family levels 1-4 and outcome levels 3-5."""

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_matches_record_scan(self, seed):
        store = random_store(random.Random(seed))
        for spec in oracle_specs():
            first = record_scan_first_dates(store, spec.doi)
            assert exposure_count(spec.doi, store) == len(first)
            assert find_instances(spec, store) == record_scan_instances(spec, store), spec

    def test_oracle_inputs_cover_the_edge_cases(self):
        store = random_store(random.Random(61))
        same_day_repeats = same_day_outcomes = 0
        for pid in store.patients:
            evs = store.patient_events(pid)
            drugs = [(e.date, e.code) for e in evs if e.code_type == "BNF"]
            same_day_repeats += len(drugs) - len(set(drugs))
            drug_days = {d for d, _ in drugs}
            same_day_outcomes += sum(1 for e in evs if e.code_type == "READ" and e.date in drug_days)
        assert same_day_repeats > 0 and same_day_outcomes > 0
        assert sum(1 for spec in oracle_specs() if find_instances(spec, store)) > 10


class TestExposureCount:
    def test_worked_example_all_prescribed(self, worked_store):
        assert exposure_count(DOI, worked_store) == 4

    def test_no_prescriptions(self, worked_store):
        assert exposure_count(frozenset([parse_bnf("9.9.0.0")]), worked_store) == 0


class TestInstancesFile:
    def test_round_trip(self, tmp_path, worked_store):
        instances = find_instances(make_spec(), worked_store)
        path = tmp_path / "instances.csv"
        write_instances_csv(instances, str(path))
        assert read_instances_csv(str(path)) == instances

    def test_fixture_file(self, worked_example_dir):
        instances = read_instances_csv(str(worked_example_dir / "instances.csv"))
        assert len(instances) == 4
        assert instances[0] == SignalInstance("1", dt.date(2003, 6, 5), dt.date(2005, 8, 1))

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "instances.csv"
        path.write_text("patient_id,doi_date,hoi_date\np1,2005-01-01\n")
        with pytest.raises(ParseError, match=":2:"):
            read_instances_csv(str(path))


def oracle_add_months(date: dt.date, months: int) -> dt.date:
    """Shift by calendar months, clamping the day to the month's length."""
    year, month0 = divmod(date.year * 12 + date.month - 1 + months, 12)
    return dt.date(year, month0 + 1, min(date.day, calendar.monthrange(year, month0 + 1)[1]))


# Month-end registrations (Jan 31, leap-day Feb 29) make the month
# arithmetic clamp; the rest are plain.
REGISTRATIONS = [
    dt.date(2000, 1, 31), dt.date(2000, 2, 29), dt.date(2003, 1, 31), dt.date(2004, 2, 29),
    dt.date(2001, 3, 31), dt.date(2002, 8, 31), dt.date(2001, 6, 15),
]
STORE_END = dt.date(2008, 3, 1)


def calendar_store(rng: random.Random, n_patients: int = 70, end: dt.date | None = STORE_END):
    """An in-memory store whose events sit on the boundaries the store
    stages test: the registration cutoff (12 months) and a day either side,
    the 30-day end buffer and a day either side, 23-25 months after the
    first event, and same-day ties. Every seventh patient has no events."""
    patients, events = {}, {}
    for i in range(n_patients):
        pid = f"q{i:02d}"
        reg = rng.choice(REGISTRATIONS)
        patients[pid] = PatientInfo(pid, rng.choice("MF"), 1950 + i, reg)
        if i % 7 == 0:
            events[pid] = ()
            continue
        cutoff = oracle_add_months(reg, 12)
        anchors = [reg, cutoff - dt.timedelta(days=1), cutoff, cutoff + dt.timedelta(days=1)]
        anchors += [
            oracle_add_months(reg, k) + dt.timedelta(days=s) for k in (23, 24, 25) for s in (-1, 0, 1)
        ]
        anchors += [STORE_END - dt.timedelta(days=k) for k in (31, 30, 29, 0)]
        span = (STORE_END - reg).days
        anchors += [reg + dt.timedelta(days=rng.randint(0, span)) for _ in range(4)]
        evs = []
        for day in rng.sample(anchors, rng.randint(1, 8)):
            if day < reg or day > STORE_END:
                continue
            for _ in range(rng.randint(1, 3)):  # same-day ties, mixed code types
                if rng.random() < 0.6:
                    evs.append(EventRecord(pid, day, "BNF", rng.choice(DRUG_POOL)))
                else:
                    evs.append(EventRecord(pid, day, "READ", rng.choice(DIAGNOSIS_POOL)))
        evs.sort(key=lambda e: e.date)  # stable: ties keep their order
        events[pid] = tuple(evs)
    return EventStore(patients, events, end)


def record_scan_exclusions(store, months: int, buffer_days: int) -> dict:
    end = store.db_end_date
    kept = {}
    for pid, info in store.patients.items():
        cutoff = oracle_add_months(info.registration_date, months)
        kept[pid] = tuple(
            e
            for e in store.patient_events(pid)
            if e.code_type != "BNF"
            or not (e.date <= cutoff or (end is not None and (end - e.date).days < buffer_days))
        )
    return kept


def record_scan_eligible(store, min_months: int) -> set[str]:
    """Active for `min_months` whole months: the first event shifted by that
    many months is still on or before the last event."""
    eligible = set()
    for pid in store.patients:
        evs = store.patient_events(pid)
        if min_months <= 0 or (evs and oracle_add_months(evs[0].date, min_months) <= evs[-1].date):
            eligible.add(pid)
    return eligible


def record_scan_basket(store, pid: str, cutoff: dt.date, include_same_day: bool) -> frozenset:
    items = {Item(ItemKind.GENDER, store.patients[pid].gender)}
    for e in store.patient_events(pid):
        if e.date < cutoff or (include_same_day and e.date == cutoff):
            items.add(normalize_item(e.code_type, e.code))
    return frozenset(items)


class TestStoreScanOracle:
    """Exclusions, eligibility, whole-history baskets and pre-outcome
    baskets against per-record scans, on stores whose events sit on the
    calendar and window boundaries."""

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_matches_record_scan(self, seed):
        rng = random.Random(seed)
        for end in (STORE_END, None):
            store = calendar_store(rng, end=end)
            for months, buffer_days in ((12, 30), (1, 0), (0, 365)):
                excluded = apply_prescription_exclusions(store, months, buffer_days)
                assert excluded.events == record_scan_exclusions(store, months, buffer_days)
                assert excluded.db_end_date == store.db_end_date
            for source in (store, apply_prescription_exclusions(store)):
                for min_months in (0, 1, 23, 24, 25):
                    assert eligible_patients(source, min_months) == record_scan_eligible(
                        source, min_months
                    )
                db = build_database(source, 23)
                eligible = record_scan_eligible(source, 23)
                assert list(db.baskets) == [
                    (pid, record_scan_basket(source, pid, dt.date.max, True))
                    for pid in source.patients
                    if pid in eligible
                ]
                for pid in source.patients:
                    dates = sorted({e.date for e in source.patient_events(pid)})
                    cutoffs = [dt.date(1999, 1, 1), *dates]
                    cutoffs += [d + dt.timedelta(days=1) for d in dates]
                    for cutoff in cutoffs:
                        for same_day in (False, True):
                            assert pre_outcome_basket(source, pid, cutoff, same_day) == (
                                record_scan_basket(source, pid, cutoff, same_day)
                            ), (pid, cutoff, same_day)

    def test_oracle_inputs_cover_the_edge_cases(self):
        store = calendar_store(random.Random(71))
        regs = {info.registration_date for info in store.patients.values()}
        assert {dt.date(2000, 1, 31), dt.date(2000, 2, 29)} <= regs
        on_cutoff = on_buffer = ties = empty = 0
        for pid, info in store.patients.items():
            evs = store.patient_events(pid)
            empty += not evs
            drugs = [e.date for e in evs if e.code_type == "BNF"]
            on_cutoff += oracle_add_months(info.registration_date, 12) in drugs
            on_buffer += (STORE_END - dt.timedelta(days=30)) in drugs
            ties += len(evs) - len({e.date for e in evs})
        assert on_cutoff > 0 and on_buffer > 0 and ties > 0 and empty > 0
        eligible = eligible_patients(store, 24)
        assert 0 < len(eligible) < len(store.patients) - empty


class TestSharedSelections:
    """`_rows` keeps a store's latest row selections on the store itself."""

    SCANS = (
        lambda spec, store: exposure_count(spec.doi, store),
        find_instances,
        ab_ratio,
    )

    @staticmethod
    def pair(seed: int):
        store = calendar_store(random.Random(seed))
        return store, apply_prescription_exclusions(store)

    def test_store_and_its_exclusions_keep_their_own_rows(self):
        """Alternating the scans between a store and its exclusions, which
        share one code table but not rows, gives each scan's result on a
        separate fresh store."""
        specs = list(oracle_specs())
        fresh = {
            (k, side, s): scan(spec, self.pair(92)[side])
            for k, spec in enumerate(specs)
            for s, scan in enumerate(self.SCANS)
            for side in (0, 1)
        }
        store, excluded = self.pair(92)
        assert store.code_table is excluded.code_table
        for k, spec in enumerate(specs):
            for s, scan in enumerate(self.SCANS):
                for side, source in enumerate((store, excluded)):
                    assert scan(spec, source) == fresh[k, side, s], (spec, s, side)
        # The exclusions change some result of every scan.
        for s in range(len(self.SCANS)):
            assert any(fresh[k, 0, s] != fresh[k, 1, s] for k in range(len(specs)))

    def test_a_family_set_changed_after_use_is_a_new_query(self):
        store, _ = self.pair(94)
        doi = set(DOI)
        before = exposure_count(doi, store)
        doi.add(parse_bnf("2.1.0.0"))
        after = exposure_count(doi, store)
        assert after == exposure_count(frozenset(doi), self.pair(94)[0]) > before

    def test_keeps_the_two_most_recently_used_read_only(self):
        store, _ = self.pair(93)
        queries = [DOI, parse_read("H05.."), frozenset([parse_bnf("2.1.0.0")])]
        table = store.code_table

        def select(query, code):
            if isinstance(query, frozenset):
                return doi_matches(code, query)
            return signals_module.outcome_matches(code, query)

        want = [
            np.flatnonzero(np.array([select(q, c) for c, _ in table.values()])[store.columns.code])
            for q in queries
        ]
        assert len({w.tobytes() for w in want}) == 3
        calls = []

        def rows_of(k):
            """`_rows` for query k; each mask it builds asks once per code."""
            return signals_module._rows(
                store, queries[k], lambda code, query: calls.append(query) or select(query, code)
            )

        def masks_built():
            assert len(calls) % len(table) == 0
            return len(calls) // len(table)

        rows = [rows_of(k) for k in range(3)]
        for got, expected in zip(rows, want):
            assert not got.flags.writeable
            assert got.tolist() == expected.tolist()
        assert masks_built() == 3
        # Kept: queries 2 and 1. Using query 1 makes query 2 the one that a
        # new selection (query 0) drops.
        assert rows_of(1) is rows[1]
        assert masks_built() == 3
        rows_of(0)
        assert masks_built() == 4
        assert rows_of(1) is rows[1]
        assert masks_built() == 4
        assert rows_of(2) is not rows[2]
        assert masks_built() == 5
        assert len(store._selections) == 2
