"""Reproducible synthetic cohorts with planted structure.

Two mechanisms can be planted on top of independent background noise:

* A confounder: a latent condition that, when a patient has it, leads to
  both a prescription of the drug of interest (co-prescription) and the
  outcome, without any causal drug-outcome link. The condition's
  antecedent items are recorded before everything else with a single
  recording probability: either the whole antecedent is documented or
  none of it is (a condition is diagnosed or it is not). That makes the
  fraction of confounded signal instances carrying the full antecedent,
  and hence the fraction the refiner can explain away, equal to the
  recording probability in closed form.

* A true adverse reaction: after a patient's first prescription of the
  drug family, the outcome fires with a fixed probability at a uniform
  latency inside the signal window.

Every generated outcome event carries a ground-truth cause label
(confounder / adr / background), so end-to-end recovery is checkable.
Generation is deterministic: each patient draws from an independent
stream derived from the scenario seed and the patient ordinal.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import parse_bnf, parse_code, parse_read
from .errors import (
    ConfigError, ParseError, checked, csv_rows, json_int, json_list, json_number, read_json,
)
from .events import (
    _EVENTS_HEADER, _PATIENTS_HEADER, CodeTable, EventStore, PatientInfo, _parse_entry, _store,
)
from .signals import DEFAULT_WINDOW, doi_matches

GENERATOR_ID = "pcg64-per-patient-seedseq-v1"

CAUSE_CONFOUNDER = "confounder"
CAUSE_ADR = "adr"
CAUSE_BACKGROUND = "background"

# Placement fractions for planted-confounder timing: antecedent items are
# recorded in the first part of the span, prescriptions and outcomes later,
# so "recorded before the outcome" holds by construction. Outcomes follow
# their anchor prescription by a latency in the default signal window.
_ANTECEDENT_SPAN_FRACTION = 0.4
_ANCHOR_SPAN_FRACTION = 0.45


@dataclass(frozen=True)
class CatalogItem:
    code_type: str
    code: str
    daily_rate: float


@dataclass(frozen=True)
class PlantedConfounder:
    antecedent: tuple[tuple[str, str], ...]  # (code_type, code) pairs
    outcome_code: str
    doi_code: str
    prevalence: float
    recording_probability: float
    activation_probability: float
    doi_coprescription_probability: float


@dataclass(frozen=True)
class PlantedAdr:
    doi_items: tuple[str, ...]
    outcome_code: str
    reaction_probability: float
    latency_days: tuple[int, int] = DEFAULT_WINDOW


# Each scenario dataclass's field order is its key order in metadata.json's
# `config`; only the top level is reordered, by `_SCENARIO_KEYS`.
@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    patient_count: int
    observation_days: int
    catalog: tuple[CatalogItem, ...]
    start_date: dt.date = dt.date(2000, 1, 1)
    confounder: PlantedConfounder | None = None
    adr: PlantedAdr | None = None


# scenario.json's top-level keys in file order: `start_date` has a
# default, so `ScenarioConfig` declares it after `catalog`.
_SCENARIO_KEYS = (
    "seed", "patient_count", "observation_days", "start_date", "catalog", "confounder", "adr",
)

_TRUTH_HEADER = ["patient_id", "hoi_date", "cause"]


@dataclass(frozen=True, slots=True)
class TruthRow:
    patient_id: str
    hoi_date: dt.date
    cause: str


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1]: {value}")


def validate_config(config: ScenarioConfig) -> None:
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0: {config.seed}")
    if config.patient_count < 1:
        raise ConfigError(f"patient_count must be >= 1: {config.patient_count}")
    if config.observation_days < 3:
        raise ConfigError(f"observation_days must be >= 3: {config.observation_days}")
    if config.observation_days - 1 > dt.date.max.toordinal() - config.start_date.toordinal():
        raise ConfigError(
            f"observation_days {config.observation_days} from {config.start_date} "
            f"runs past {dt.date.max}"
        )
    if not config.catalog:
        raise ConfigError("catalog must not be empty")
    for item in config.catalog:
        _check_probability(f"daily_rate of {item.code}", item.daily_rate)
        parse_code(item.code_type, item.code)
    conf = config.confounder
    if conf is not None:
        if not conf.antecedent:
            raise ConfigError("confounder antecedent must not be empty")
        for entry in conf.antecedent:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ConfigError(
                    f"each confounder.antecedent entry must be a (code_type, code) pair: {entry!r}"
                )
            parse_code(*entry)
        parse_read(conf.outcome_code)
        parse_bnf(conf.doi_code)
        _check_probability("prevalence", conf.prevalence)
        _check_probability("recording_probability", conf.recording_probability)
        _check_probability("activation_probability", conf.activation_probability)
        _check_probability("doi_coprescription_probability", conf.doi_coprescription_probability)
        anchor_lo = int(config.observation_days * _ANCHOR_SPAN_FRACTION)
        anchor_hi = config.observation_days - (DEFAULT_WINDOW[1] + 1)
        if anchor_hi <= anchor_lo:
            raise ConfigError(
                f"observation_days {config.observation_days} too short to place "
                "a confounder outcome inside the span"
            )
    adr = config.adr
    if adr is not None:
        if not adr.doi_items:
            raise ConfigError("adr doi_items must not be empty")
        for code in adr.doi_items:
            parse_bnf(code)
        parse_read(adr.outcome_code)
        _check_probability("reaction_probability", adr.reaction_probability)
        # No longer latency is recorded: the first prescription falls on
        # day 0 or later, and the outcome before day `span`.
        days, span = adr.latency_days, config.observation_days
        two_ints = len(days) == 2 and all(type(v) is int for v in days)
        if not two_ints or not 1 <= days[0] <= days[1] < span:
            default = " (the default)" if tuple(days) == DEFAULT_WINDOW else ""
            raise ConfigError(
                f"latency_days must be two integer days, 1 <= lo <= hi < {span}: {days}{default}"
            )


def expected_filter_rate(config: ScenarioConfig) -> float:
    """Closed-form expected fraction of confounded in-window outcomes whose
    patients carry the full confounder antecedent before the outcome.

    Recording is all-or-nothing and independent of every timing draw, so
    the fraction equals the recording probability; without a planted
    confounder there is nothing to explain and the rate is 0. This is
    also the fraction of signal instances the refiner should mark
    expected, provided the scenario is parameterized so each antecedent
    item's rule clears the mining floors and no spurious rule does.
    """
    validate_config(config)
    if config.confounder is None:
        return 0.0
    return config.confounder.recording_probability


def daily_rate_for_presence(presence: float, observation_days: int) -> float:
    """Per-day rate so that P(at least one event in the span) = presence."""
    if not observation_days >= 1:
        raise ConfigError(f"observation_days must be >= 1: {observation_days}")
    if not 0.0 <= presence < 1.0:
        raise ConfigError(f"presence must be in [0, 1): {presence}")
    return 1.0 - (1.0 - presence) ** (1.0 / observation_days)


def _generate_patient(
    config: ScenarioConfig, ordinal: int, rates: np.ndarray, catalog: np.ndarray,
    position: dict[tuple[str, str], int], family: list[bool],
) -> tuple[PatientInfo, list[int], list[int], list[str]]:
    """A patient and its rows, unsorted: per row a day offset, a code
    position (into the scenario's sorted codes) and a cause."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(ordinal,)))
    pid = f"s{ordinal:07d}"
    gender = "M" if rng.random() < 0.5 else "F"
    year_of_birth = 1930 + int(rng.integers(0, 60))
    info = PatientInfo(pid, gender, year_of_birth, config.start_date)
    days = config.observation_days

    counts = rng.binomial(days, rates)
    total = int(counts.sum())
    day = rng.integers(0, days, size=total).tolist() if total else []
    code = np.repeat(catalog, counts).tolist()
    cause = [CAUSE_BACKGROUND] * total

    def add(offset: int, key: tuple[str, str], why: str = CAUSE_BACKGROUND) -> None:
        day.append(offset)
        code.append(position[key])
        cause.append(why)

    conf = config.confounder
    if conf is not None and rng.random() < conf.prevalence:
        antecedent_hi = max(1, int(days * _ANTECEDENT_SPAN_FRACTION))
        anchor_lo = int(days * _ANCHOR_SPAN_FRACTION)
        anchor_hi = days - (DEFAULT_WINDOW[1] + 1)
        if rng.random() < conf.recording_probability:
            for key in conf.antecedent:
                add(int(rng.integers(0, antecedent_hi)), key)
        coprescribed = rng.random() < conf.doi_coprescription_probability
        activated = rng.random() < conf.activation_probability
        anchor = int(rng.integers(anchor_lo, anchor_hi))
        if coprescribed:
            add(anchor, ("BNF", conf.doi_code))
        if activated:
            latency = int(rng.integers(DEFAULT_WINDOW[0], DEFAULT_WINDOW[1] + 1))
            add(anchor + latency, ("READ", conf.outcome_code), CAUSE_CONFOUNDER)

    adr = config.adr
    if adr is not None:
        first = min((d for d, k in zip(day, code) if family[k]), default=None)
        if first is not None and rng.random() < adr.reaction_probability:
            latency = int(rng.integers(adr.latency_days[0], adr.latency_days[1] + 1))
            if first + latency < days:
                add(first + latency, ("READ", adr.outcome_code), CAUSE_ADR)
    return info, day, code, cause


def _generate(config: ScenarioConfig) -> tuple[EventStore, np.ndarray, list[str]]:
    """The cohort's store, the rows of its outcome events and their causes.
    A code position indexes the scenario's sorted (code_type, code) pairs,
    so rows sorted by (day, position), ties in draw order, are in (day,
    code_type, code) order."""
    validate_config(config)
    conf, adr = config.confounder, config.adr
    outcomes = {("READ", plant.outcome_code) for plant in (conf, adr) if plant is not None}
    planted = [*conf.antecedent, ("BNF", conf.doi_code)] if conf is not None else []
    keys = sorted({(item.code_type, item.code) for item in config.catalog}.union(outcomes, planted))
    position = {key: k for k, key in enumerate(keys)}
    doi = frozenset(parse_bnf(code) for code in adr.doi_items) if adr is not None else ()
    family = [t == "BNF" and doi_matches(parse_bnf(c), doi) for t, c in keys]
    rates = np.array([item.daily_rate for item in config.catalog])
    catalog = np.array([position[item.code_type, item.code] for item in config.catalog])

    patients: dict[str, PatientInfo] = {}
    sizes, day, code, cause = [], [], [], []
    for ordinal in range(config.patient_count):
        info, d, k, c = _generate_patient(config, ordinal, rates, catalog, position, family)
        patients[info.patient_id] = info
        sizes.append(len(d))
        day += d
        code += k
        cause += c
    patient = np.repeat(np.arange(config.patient_count), sizes)
    day = np.array(day, dtype=np.int64) + config.start_date.toordinal()
    code = np.array(code, dtype=np.int64)
    order = np.lexsort((code, day, patient))
    patient, day, code = patient[order], day[order], code[order]
    used, code_id = np.unique(code, return_inverse=True)  # only the codes that occur
    table = CodeTable({keys[k]: _parse_entry(keys[k]) for k in used.tolist()})
    store = _store(patients, lambda *_: (patient, day, code_id, table), None)
    # The rows went in already in store order, so `truth` indexes its columns.
    truth = np.flatnonzero(np.array([key in outcomes for key in keys])[code])
    return store, truth, [cause[r] for r in order[truth].tolist()]


def generate_store(config: ScenarioConfig) -> tuple[EventStore, list[TruthRow]]:
    """Generate a cohort directly as an in-memory store plus truth labels."""
    store, truth, causes = _generate(config)
    pids, columns = list(store.patients), store.columns
    rows = zip(columns.patient[truth].tolist(), columns.day[truth].tolist(), causes)
    return store, [TruthRow(pids[p], dt.date.fromordinal(d), c) for p, d, c in rows]


def _id_dates(store: EventStore, rows: np.ndarray | slice = slice(None)) -> list[str]:
    """`patient_id,date` of each of the store's `rows`, each distinct day
    formatted once."""
    pids = list(store.patients)
    days, inverse = np.unique(store.columns.day[rows], return_inverse=True)
    dates = [dt.date.fromordinal(d).isoformat() for d in days.tolist()]
    patient = store.columns.patient[rows].tolist()
    return [f"{pids[p]},{dates[d]}" for p, d in zip(patient, inverse.tolist())]


def _config_to_dict(config: ScenarioConfig) -> dict:
    """A config as scenario.json holds it, and as JSON reads it back: its
    fields through `dataclasses.asdict`, dates in ISO form, no null
    mechanism and tuples as lists."""
    fields = json.loads(json.dumps(dataclasses.asdict(config), default=dt.date.isoformat))
    return {key: fields[key] for key in _SCENARIO_KEYS if fields[key] is not None}


def _scenario(payload: dict) -> ScenarioConfig:
    """The configuration a scenario.json value holds."""
    catalog = tuple(
        CatalogItem(c["code_type"], c["code"], json_number(c, "daily_rate"))
        for c in json_list(payload["catalog"], "catalog")
    )
    confounder = None
    if "confounder" in payload:
        c = payload["confounder"]
        pairs = json_list(c["antecedent"], "confounder.antecedent")
        for pair in pairs:
            if len(json_list(pair, "each confounder.antecedent entry")) != 2:
                raise ValueError(
                    "confounder.antecedent entries must be [code_type, code] pairs, "
                    f"not {json.dumps(pair)}"
                )
        confounder = PlantedConfounder(
            antecedent=tuple(map(tuple, pairs)),
            outcome_code=c["outcome_code"],
            doi_code=c["doi_code"],
            prevalence=json_number(c, "prevalence"),
            recording_probability=json_number(c, "recording_probability"),
            activation_probability=json_number(c, "activation_probability"),
            doi_coprescription_probability=json_number(c, "doi_coprescription_probability"),
        )
    adr = None
    if "adr" in payload:
        a = payload["adr"]
        adr = PlantedAdr(
            doi_items=tuple(json_list(a["doi_items"], "adr.doi_items")),
            outcome_code=a["outcome_code"],
            reaction_probability=json_number(a, "reaction_probability"),
            latency_days=tuple(  # type: ignore[arg-type]
                json_list(a.get("latency_days", [*DEFAULT_WINDOW]), "adr.latency_days")
            ),
        )
    return ScenarioConfig(
        seed=json_int(payload, "seed"),
        patient_count=json_int(payload, "patient_count"),
        observation_days=json_int(payload, "observation_days"),
        catalog=catalog,
        start_date=dt.date.fromisoformat(payload.get("start_date", "2000-01-01")),
        confounder=confounder,
        adr=adr,
    )


def load_scenario(path: str) -> ScenarioConfig:
    """Read a scenario.json config file. Counts and the seed must be JSON
    integers and rates and probabilities JSON numbers; a malformed code
    is a ParseError naming the file."""
    prefix = "bad scenario config: "
    [config] = checked([(None, read_json(path))], _scenario, path, prefix)
    try:
        validate_config(config)
    except ParseError as exc:
        raise ParseError(prefix + str(exc), source=path) from None
    return config


def generate(config: ScenarioConfig, out_dir: str) -> dict:
    """Generate a cohort into `out_dir`: patients.csv, events.csv,
    ground_truth.csv, and metadata.json. Byte-identical given a seed."""
    store, truth, causes = _generate(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "patients.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_PATIENTS_HEADER) + "\n")
        for p in store.patients.values():
            date = p.registration_date.isoformat()
            fh.write(f"{p.patient_id},{p.gender},{p.year_of_birth},{date}\n")
    code_text = [f"{code_type},{code}" for code_type, code in store.code_table]
    with open(out / "events.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_EVENTS_HEADER) + "\n")
        rows = zip(_id_dates(store), store.columns.code.tolist())
        fh.writelines(f"{row},{code_text[k]}\n" for row, k in rows)
    with open(out / "ground_truth.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_TRUTH_HEADER) + "\n")
        fh.writelines(f"{row},{cause}\n" for row, cause in zip(_id_dates(store, truth), causes))

    summary = {
        "generator": GENERATOR_ID,
        "seed": config.seed,
        "patients": store.patient_count,
        "events": store.event_count,
        "outcome_events": len(causes),
        "expected_filter_rate": expected_filter_rate(config),
        "config": _config_to_dict(config),
    }
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return summary


def read_ground_truth(path: str) -> list[TruthRow]:
    rows = csv_rows(path, _TRUTH_HEADER)
    return list(checked(rows, lambda r: TruthRow(r[0], dt.date.fromisoformat(r[1]), r[2]), path))
