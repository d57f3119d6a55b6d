import dataclasses
import datetime as dt
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrrefine import synth
from adrrefine.codes import parse_bnf
from adrrefine.errors import ConfigError, ParseError
from adrrefine.events import load
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

from oracles import family_oracle, seedseq_cohort_oracle

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

    @pytest.mark.parametrize("days", [4_000_000, 10**30])
    def test_span_past_date_max_rejected(self, days):
        config = make_config(observation_days=days, confounder=None)
        with pytest.raises(ConfigError, match="runs past 9999-12-31"):
            validate_config(config)

    def test_bad_latency_rejected(self):
        bad = PlantedAdr(("5.1.0.0",), "N772.", 0.01, latency_days=(0, 60))
        with pytest.raises(ConfigError):
            validate_config(make_config(adr=bad))

    @pytest.mark.parametrize("latency", [(1,), (1, 30, 60), (True, 60), (1, SPAN), (1, 10**30)])
    def test_latency_not_two_integer_days_rejected(self, latency):
        bad = PlantedAdr(("5.1.0.0",), "N772.", 0.01, latency_days=latency)
        with pytest.raises(ConfigError, match="latency_days must be two integer days"):
            validate_config(make_config(adr=bad))

    def test_default_latency_past_a_short_span_rejected(self):
        # The default (1, 60) is bounded like a given one.
        adr = PlantedAdr(("5.1.0.0",), "N772.", 0.01)
        config = make_config(observation_days=60, confounder=None, adr=adr)
        with pytest.raises(ConfigError, match=r"< 60: \(1, 60\) \(the default\)$"):
            validate_config(config)

    def test_longest_recordable_latency_accepted(self):
        # A first prescription on day 0 and an outcome on the span's last day.
        validate_config(make_config(adr=PlantedAdr(("5.1.0.0",), "N772.", 0.01, (1, SPAN - 1))))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0: -1"):
            validate_config(make_config(seed=-1))

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

    @pytest.mark.parametrize(
        "bad",
        [
            {"confounder": dataclasses.replace(CONFOUNDER, antecedent=())},
            {"adr": dataclasses.replace(ADR, doi_items=())},
        ],
        ids=["confounder.antecedent", "adr.doi_items"],
    )
    def test_empty_code_list_rejected(self, bad):
        with pytest.raises(ConfigError, match="must not be empty"):
            validate_config(make_config(**bad))

    @pytest.mark.parametrize(
        "antecedent", [(("READ", "K55..", "x"),), ("READ",), (("READ",),), ("RE",)]
    )
    def test_antecedent_entry_not_a_pair_rejected(self, antecedent):
        bad = dataclasses.replace(CONFOUNDER, antecedent=antecedent)
        with pytest.raises(ConfigError, match="confounder.antecedent entry"):
            validate_config(make_config(confounder=bad))

    @pytest.mark.parametrize("days", [0, -3])
    def test_presence_span_below_one_day_rejected(self, days):
        # Checked before the presence, which is valid here.
        with pytest.raises(ConfigError, match=f"observation_days must be >= 1: {days}$"):
            daily_rate_for_presence(0.5, days)

    @pytest.mark.parametrize("presence", [-0.1, 1.0, float("nan")])
    def test_presence_outside_unit_interval_rejected(self, presence):
        with pytest.raises(ConfigError, match=r"presence must be in \[0, 1\)"):
            daily_rate_for_presence(presence, SPAN)

    def test_presence_rate_over_one_day_is_the_presence(self):
        assert daily_rate_for_presence(0.5, 1) == pytest.approx(0.5)


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


# A small scenario with every kind of row: a confounder, a planted
# reaction, and a catalog drug ("5.1.1.0") in the reaction's family that
# is not its listed code.
PINNED_CONFIG = make_config(
    seed=2024,
    patient_count=60,
    catalog=catalog_with_presence(
        [
            ("BNF", "5.1.1.0", 0.6),
            ("READ", "C10..", 0.4),
            ("BNF", "2.5.0.0", 0.35),
            ("READ", "N772.", 0.05),
        ]
    ),
    confounder=dataclasses.replace(CONFOUNDER, prevalence=0.3, activation_probability=0.6),
    adr=PlantedAdr(("5.1.0.0",), "N772.", 0.4, latency_days=(1, 90)),
)

PINNED_SHA256 = {
    "patients.csv": "21fd8fb65c47eab76cda8a7bae215969c50975799194ee82b2055dba279cdd7c",
    "events.csv": "5ce054fde7caa28d88c07aa362412a7116ad44290a2e48cf08fa73ea80723398",
    "ground_truth.csv": "eca97c01fcf124728701a6ff36e28adb5a316a5516d5a2b3402c97b35d34e71a",
    "metadata.json": "7cbc85e328abc7c548cf096f14b873feecd5e9602e5f257c2149cf51a5e615e7",
}

# The same scenario at a seed of two 32-bit words.
PINNED_TWO_WORD_CONFIG = dataclasses.replace(PINNED_CONFIG, seed=2**32 + 2024)

PINNED_TWO_WORD_SHA256 = {
    "patients.csv": "a239984b3e0b17f21366ae0e4f7f2c04fc5c81c158b622ecb8ee9c68ccd8bc2c",
    "events.csv": "1c0400f92aa1fa51cbaa6078c689211de358cfb52741708d22c7bcf8aef476a8",
    "ground_truth.csv": "e01f121cebcf084c7b38c35f51541f94d0f2b266011a5808f2716c097d694ccd",
    "metadata.json": "ff2aa62b9533881fe7fc28cc8a29c702871aa8821683a193db4ee5023f05e73b",
}


def numpy_pcg64_state(seed: int, ordinal: int) -> tuple[int, int]:
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ordinal,))).state
    return state["state"]["state"], state["state"]["inc"]


STREAM_SEEDS = [0, 1, 51001, 2**32 - 1, 2**32, 2**64 + 3, 2**100, 2**127, 2**128 + 7, 2**200 + 11]
STREAM_ORDINALS = [0, 1, 2, 12345, 2**31, 2**32 - 1, 2**32, 2**40 + 9]


class TestStreamStates:
    # Patient streams are seeded from states computed in array arithmetic;
    # each must be the state numpy's own SeedSequence and PCG64 give.
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_equal_numpy_seeding(self, seed):
        # One- and two-word ordinals in one block.
        got = synth._pcg64_states(seed, np.array(STREAM_ORDINALS, dtype=np.uint64))
        assert got == [numpy_pcg64_state(seed, k) for k in STREAM_ORDINALS]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**256 - 1),
        st.lists(st.integers(0, 2**48 - 1), min_size=1, max_size=6),
    )
    def test_equal_numpy_seeding_drawn(self, seed, ordinals):
        got = synth._pcg64_states(seed, np.array(ordinals, dtype=np.uint64))
        assert got == [numpy_pcg64_state(seed, k) for k in ordinals]

    def test_generators_across_a_block_boundary(self):
        block = synth._SEED_BLOCK
        checked = {0, block - 1, block, block + 1}
        for k, rng in enumerate(synth._patient_rngs(2**33 + 1, block + 2)):
            state = rng.bit_generator.state
            assert state["has_uint32"] == 0 and state["uinteger"] == 0
            if k in checked:
                assert (state["state"]["state"], state["state"]["inc"]) == numpy_pcg64_state(
                    2**33 + 1, k
                )

    @pytest.mark.parametrize("seed", [7, 2**32 + 5, 2**130 + 1])
    def test_cohort_equals_numpy_seeded_patients(self, seed):
        config = make_config(seed=seed, patient_count=300, adr=ADR)
        store, truth, causes = synth._generate(config)
        want_store, want_truth, want_causes = seedseq_cohort_oracle(config)
        assert {"confounder", "adr"} <= set(causes)  # both plants fire
        assert store == want_store
        assert np.array_equal(truth, want_truth) and causes == want_causes


class TestGeneratedBytes:
    def test_pinned_scenario_bytes(self, tmp_path):
        # The files of one seed are fixed by GENERATOR_ID: a change that
        # moves a byte needs a new generator id.
        generate(PINNED_CONFIG, str(tmp_path))
        causes = {row.cause for row in read_ground_truth(str(tmp_path / "ground_truth.csv"))}
        assert causes == {"confounder", "adr", "background"}
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_SHA256
        }
        assert got == PINNED_SHA256

    def test_pinned_two_word_seed_bytes(self, tmp_path):
        generate(PINNED_TWO_WORD_CONFIG, str(tmp_path))
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_TWO_WORD_SHA256
        }
        assert got == PINNED_TWO_WORD_SHA256

    def test_store_equals_loaded_files(self, tmp_path):
        store, truth = generate_store(PINNED_CONFIG)
        generate(PINNED_CONFIG, str(tmp_path))
        loaded = load(str(tmp_path / "patients.csv"), str(tmp_path / "events.csv"))
        assert store == loaded
        assert store.db_end_date == loaded.db_end_date
        assert set(store.code_table) == set(loaded.code_table)
        assert truth == read_ground_truth(str(tmp_path / "ground_truth.csv"))

    def test_no_events_no_end_date(self, tmp_path):
        config = make_config(
            patient_count=5, catalog=(CatalogItem("READ", "C10..", 0.0),), confounder=None
        )
        store, truth = generate_store(config)
        assert store.event_count == 0
        assert store.db_end_date is None
        assert truth == []


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
                if ev.code_type == "BNF" and family_oracle(parse_bnf(ev.code), doi)
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
