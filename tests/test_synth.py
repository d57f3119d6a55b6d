import dataclasses
import datetime as dt
import json
import math
from collections import Counter

import pytest

from adrrefine.codes import parse_bnf
from adrrefine.errors import ConfigError, ParseError
from adrrefine.events import load
from adrrefine.signals import doi_matches
from adrrefine.synth import (
    CatalogItem,
    PlantedAdr,
    PlantedConfounder,
    ScenarioConfig,
    daily_rate_for_presence,
    expected_filter_rate,
    generate,
    generate_store,
    load_scenario,
    read_ground_truth,
    validate_config,
)

SPAN = 1460


def catalog_with_presence(pairs):
    return tuple(
        CatalogItem(code_type, code, daily_rate_for_presence(p, SPAN))
        for code_type, code, p in pairs
    )


BASE_CATALOG = catalog_with_presence(
    [
        ("BNF", "5.1.0.0", 0.5),    # the drug family of interest
        ("READ", "C10..", 0.4),
        ("READ", "H33..", 0.3),
        ("BNF", "2.5.0.0", 0.35),
        ("READ", "J31..", 0.2),
    ]
)

CONFOUNDER = PlantedConfounder(
    antecedent=(("READ", "K55.."), ("BNF", "9.9.0.0")),
    outcome_code="N771.",
    doi_code="5.1.0.0",
    prevalence=0.1,
    recording_probability=0.7,
    activation_probability=0.2,
    doi_coprescription_probability=0.5,
)

ADR = PlantedAdr(
    doi_items=("5.1.0.0",),
    outcome_code="N772.",
    reaction_probability=0.01,
    latency_days=(1, 60),
)


def make_config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        seed=42,
        patient_count=500,
        observation_days=SPAN,
        catalog=BASE_CATALOG,
        confounder=CONFOUNDER,
        adr=None,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestValidation:
    def test_zero_patients_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(make_config(patient_count=0))

    def test_empty_catalog_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(make_config(catalog=()))

    def test_bad_probability_rejected(self):
        bad = PlantedConfounder(
            antecedent=(("READ", "K55.."),),
            outcome_code="N771.",
            doi_code="5.1.0.0",
            prevalence=1.4,
            recording_probability=0.5,
            activation_probability=0.5,
            doi_coprescription_probability=0.5,
        )
        with pytest.raises(ConfigError):
            validate_config(make_config(confounder=bad))

    def test_bad_catalog_rate_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(
                make_config(catalog=(CatalogItem("READ", "C10..", 1.5),))
            )

    def test_span_too_short_for_confounder(self):
        with pytest.raises(ConfigError):
            validate_config(make_config(observation_days=100))

    def test_bad_latency_rejected(self):
        bad = PlantedAdr(("5.1.0.0",), "N772.", 0.01, latency_days=(0, 60))
        with pytest.raises(ConfigError):
            validate_config(make_config(adr=bad))

    @pytest.mark.parametrize("latency", [(1,), (1, 30, 60), (True, 60)])
    def test_latency_not_two_integer_days_rejected(self, latency):
        bad = PlantedAdr(("5.1.0.0",), "N772.", 0.01, latency_days=latency)
        with pytest.raises(ConfigError, match="latency_days must be two integer days"):
            validate_config(make_config(adr=bad))

    @pytest.mark.parametrize(
        "code_type, code", [("ICD", "C10.."), ("READ", "C1"), ("BNF", "5.1.0")]
    )
    def test_bad_catalog_code_is_parse_error(self, code_type, code):
        with pytest.raises(ParseError):
            validate_config(make_config(catalog=(CatalogItem(code_type, code, 0.001),)))

    def test_unknown_antecedent_code_type_is_parse_error(self):
        bad = dataclasses.replace(CONFOUNDER, antecedent=(("ICD", "K55.."),))
        with pytest.raises(ParseError, match="code_type must be READ or BNF"):
            validate_config(make_config(confounder=bad))


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(make_config(patient_count=200), str(a))
        generate(make_config(patient_count=200), str(b))
        for name in ("patients.csv", "events.csv", "ground_truth.csv", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(make_config(seed=1, patient_count=200), str(a))
        generate(make_config(seed=2, patient_count=200), str(b))
        assert (a / "events.csv").read_bytes() != (b / "events.csv").read_bytes()


class TestGeneratedCohort:
    def test_files_pass_ingestion(self, tmp_path):
        generate(make_config(patient_count=300, adr=ADR), str(tmp_path))
        store = load(str(tmp_path / "patients.csv"), str(tmp_path / "events.csv"))
        assert store.patient_count == 300
        assert store.event_count > 0

    def test_ground_truth_matches_outcome_events(self, tmp_path):
        generate(make_config(patient_count=400, adr=ADR), str(tmp_path))
        store = load(str(tmp_path / "patients.csv"), str(tmp_path / "events.csv"))
        truth = read_ground_truth(str(tmp_path / "ground_truth.csv"))
        outcome_codes = {"N771.", "N772."}
        per_patient_events = Counter(
            ev.patient_id for ev in store.iter_events()
            if ev.code_type == "READ" and ev.code in outcome_codes
        )
        per_patient_truth = Counter(row.patient_id for row in truth)
        assert per_patient_events == per_patient_truth

    def test_zero_reaction_probability_means_no_adr_outcomes(self, tmp_path):
        adr = PlantedAdr(("5.1.0.0",), "N772.", 0.0)
        generate(make_config(patient_count=400, confounder=None, adr=adr), str(tmp_path))
        truth = read_ground_truth(str(tmp_path / "ground_truth.csv"))
        assert all(row.cause != "adr" for row in truth)

    def test_zero_activation_means_no_confounder_outcomes(self, tmp_path):
        conf = PlantedConfounder(
            antecedent=(("READ", "K55.."),),
            outcome_code="N771.",
            doi_code="5.1.0.0",
            prevalence=0.2,
            recording_probability=0.7,
            activation_probability=0.0,
            doi_coprescription_probability=0.5,
        )
        generate(make_config(patient_count=400, confounder=conf), str(tmp_path))
        truth = read_ground_truth(str(tmp_path / "ground_truth.csv"))
        assert all(row.cause != "confounder" for row in truth)

    def test_metadata_records_generator_and_config(self, tmp_path):
        generate(make_config(patient_count=50), str(tmp_path))
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["generator"] == "pcg64-per-patient-seedseq-v1"
        assert meta["seed"] == 42
        assert meta["patients"] == 50
        assert meta["config"]["confounder"]["recording_probability"] == 0.7

    def test_scenario_file_round_trip(self, tmp_path):
        generate(make_config(patient_count=10, adr=ADR), str(tmp_path))
        meta = json.loads((tmp_path / "metadata.json").read_text())
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(meta["config"]))
        config = load_scenario(str(scenario_path))
        assert config == make_config(patient_count=10, adr=ADR)

    def test_scaling_patient_count_scales_outcomes(self, tmp_path):
        # Confounder outcomes per patient ~ Bernoulli(prevalence * activation).
        rate = CONFOUNDER.prevalence * CONFOUNDER.activation_probability
        for n in (2000, 4000):
            _, truth = generate_store(make_config(seed=7, patient_count=n))
            count = sum(1 for row in truth if row.cause == "confounder")
            mean = n * rate
            assert abs(count - mean) <= 3 * math.sqrt(mean * (1 - rate)) + 1


class TestReadGroundTruth:
    HEADER = "patient_id,hoi_date,cause\n"

    def test_quoted_fields_read_as_csv(self, tmp_path):
        path = tmp_path / "ground_truth.csv"
        path.write_text(self.HEADER + '"p,1",2001-01-01,adr\r\n\n"p2",2001-01-02,"background"\n')
        assert [dataclasses.astuple(row) for row in read_ground_truth(str(path))] == [
            ("p,1", dt.date(2001, 1, 1), "adr"),
            ("p2", dt.date(2001, 1, 2), "background"),
        ]

    def test_oversized_field_is_parse_error(self, tmp_path):
        path = tmp_path / "ground_truth.csv"
        path.write_text(self.HEADER + "p1,2001-01-01,adr\n" + "x" * 200_000 + "\n")
        with pytest.raises(ParseError) as excinfo:
            read_ground_truth(str(path))
        assert str(excinfo.value) == f"{path}:3: field larger than field limit (131072)"


class TestExpectedFilterRate:
    def test_always_recorded(self):
        conf = PlantedConfounder(
            antecedent=(("READ", "K55.."),),
            outcome_code="N771.",
            doi_code="5.1.0.0",
            prevalence=0.1,
            recording_probability=1.0,
            activation_probability=0.2,
            doi_coprescription_probability=0.5,
        )
        assert expected_filter_rate(make_config(confounder=conf)) == 1.0

    def test_never_recorded(self):
        conf = PlantedConfounder(
            antecedent=(("READ", "K55.."),),
            outcome_code="N771.",
            doi_code="5.1.0.0",
            prevalence=0.1,
            recording_probability=0.0,
            activation_probability=0.2,
            doi_coprescription_probability=0.5,
        )
        assert expected_filter_rate(make_config(confounder=conf)) == 0.0

    def test_no_confounder_rate_is_zero(self):
        assert expected_filter_rate(make_config(confounder=None, adr=ADR)) == 0.0

    def test_monte_carlo_cross_check(self):
        """Simulate the generator at scale and measure directly the fraction
        of confounded in-window outcomes whose full antecedent was recorded
        before the outcome; it must sit within 3 SE of the closed form."""
        config = make_config(
            patient_count=100_000,
            catalog=catalog_with_presence([("BNF", "5.1.0.0", 0.5), ("READ", "C10..", 0.3)]),
        )
        store, truth = generate_store(config)
        doi = frozenset([parse_bnf(CONFOUNDER.doi_code)])
        antecedent_items = {(ct, c) for ct, c in CONFOUNDER.antecedent}

        confounded = {(row.patient_id, row.hoi_date) for row in truth if row.cause == "confounder"}
        in_window = 0
        with_full_antecedent = 0
        for pid, hoi_date in sorted(confounded):
            events = store.patient_events(pid)
            doi_dates = [
                ev.date for ev in events
                if ev.code_type == "BNF" and doi_matches(parse_bnf(ev.code), doi)
            ]
            if not doi_dates:
                continue
            first = min(doi_dates)
            if not 1 <= (hoi_date - first).days <= 60:
                continue
            in_window += 1
            recorded = {
                (ev.code_type, ev.code) for ev in events if ev.date < hoi_date
            }
            if antecedent_items <= recorded:
                with_full_antecedent += 1

        rate = expected_filter_rate(config)
        assert in_window > 200
        observed = with_full_antecedent / in_window
        se = math.sqrt(rate * (1 - rate) / in_window)
        assert abs(observed - rate) <= 3 * se
