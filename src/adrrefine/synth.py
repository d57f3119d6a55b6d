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

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import parse_bnf, parse_code, parse_read
from .errors import ConfigError, ParseError, csv_rows, read_json
from .events import EventRecord, EventStore, PatientInfo
from .signals import doi_matches

GENERATOR_ID = "pcg64-per-patient-seedseq-v1"

CAUSE_CONFOUNDER = "confounder"
CAUSE_ADR = "adr"
CAUSE_BACKGROUND = "background"

# Placement fractions for planted-confounder timing: antecedent items are
# recorded in the first part of the span, prescriptions and outcomes later,
# so "recorded before the outcome" holds by construction.
_ANTECEDENT_SPAN_FRACTION = 0.4
_ANCHOR_SPAN_FRACTION = 0.45
_OUTCOME_LATENCY = (1, 60)


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
    latency_days: tuple[int, int] = _OUTCOME_LATENCY


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    patient_count: int
    observation_days: int
    catalog: tuple[CatalogItem, ...]
    start_date: dt.date = dt.date(2000, 1, 1)
    confounder: PlantedConfounder | None = None
    adr: PlantedAdr | None = None


@dataclass(frozen=True, slots=True)
class TruthRow:
    patient_id: str
    hoi_date: dt.date
    cause: str


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1]: {value}")


def validate_config(config: ScenarioConfig) -> None:
    if config.patient_count < 1:
        raise ConfigError(f"patient_count must be >= 1: {config.patient_count}")
    if config.observation_days < 3:
        raise ConfigError(f"observation_days must be >= 3: {config.observation_days}")
    if not config.catalog:
        raise ConfigError("catalog must not be empty")
    for item in config.catalog:
        _check_probability(f"daily_rate of {item.code}", item.daily_rate)
        parse_code(item.code_type, item.code)
    conf = config.confounder
    if conf is not None:
        if not conf.antecedent:
            raise ConfigError("confounder antecedent must not be empty")
        for code_type, code in conf.antecedent:
            parse_code(code_type, code)
        parse_read(conf.outcome_code)
        parse_bnf(conf.doi_code)
        _check_probability("prevalence", conf.prevalence)
        _check_probability("recording_probability", conf.recording_probability)
        _check_probability("activation_probability", conf.activation_probability)
        _check_probability("doi_coprescription_probability", conf.doi_coprescription_probability)
        anchor_lo = int(config.observation_days * _ANCHOR_SPAN_FRACTION)
        anchor_hi = config.observation_days - (_OUTCOME_LATENCY[1] + 1)
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
        days = adr.latency_days
        if len(days) != 2 or not all(type(v) is int for v in days) or not 1 <= days[0] <= days[1]:
            raise ConfigError(f"latency_days must be two integer days, 1 <= lo <= hi: {days}")


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
    if not 0.0 <= presence < 1.0:
        raise ConfigError(f"presence must be in [0, 1): {presence}")
    return 1.0 - (1.0 - presence) ** (1.0 / observation_days)


def _patient_rng(seed: int, ordinal: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ordinal,)))


def _family_codes(config: ScenarioConfig) -> frozenset[str]:
    """The drug codes the scenario can record that fall in the planted
    reaction's drug family (empty without a planted reaction)."""
    adr = config.adr
    if adr is None:
        return frozenset()
    doi = frozenset(parse_bnf(code) for code in adr.doi_items)
    drugs = {item.code for item in config.catalog if item.code_type == "BNF"}
    conf = config.confounder
    if conf is not None:
        drugs.add(conf.doi_code)
        drugs.update(code for code_type, code in conf.antecedent if code_type == "BNF")
    return frozenset(code for code in drugs if doi_matches(parse_bnf(code), doi))


def _generate_patient(
    config: ScenarioConfig, ordinal: int, rates: np.ndarray, family_codes: frozenset[str]
) -> tuple[PatientInfo, list[EventRecord], list[TruthRow]]:
    rng = _patient_rng(config.seed, ordinal)
    pid = f"s{ordinal:07d}"
    gender = "M" if rng.random() < 0.5 else "F"
    year_of_birth = 1930 + int(rng.integers(0, 60))
    info = PatientInfo(pid, gender, year_of_birth, config.start_date)
    days = config.observation_days

    raw: list[tuple[int, str, str, str | None]] = []  # (day, code_type, code, cause)

    counts = rng.binomial(days, rates)
    total = int(counts.sum())
    if total:
        event_days = rng.integers(0, days, size=total)
        offset = 0
        for item, n in zip(config.catalog, counts):
            for k in range(n):
                raw.append((int(event_days[offset + k]), item.code_type, item.code, CAUSE_BACKGROUND))
            offset += n

    conf = config.confounder
    if conf is not None and rng.random() < conf.prevalence:
        antecedent_hi = max(1, int(days * _ANTECEDENT_SPAN_FRACTION))
        anchor_lo = int(days * _ANCHOR_SPAN_FRACTION)
        anchor_hi = days - (_OUTCOME_LATENCY[1] + 1)
        if rng.random() < conf.recording_probability:
            for code_type, code in conf.antecedent:
                raw.append((int(rng.integers(0, antecedent_hi)), code_type, code, None))
        coprescribed = rng.random() < conf.doi_coprescription_probability
        activated = rng.random() < conf.activation_probability
        anchor = int(rng.integers(anchor_lo, anchor_hi))
        if coprescribed:
            raw.append((anchor, "BNF", conf.doi_code, None))
        if activated:
            latency = int(rng.integers(_OUTCOME_LATENCY[0], _OUTCOME_LATENCY[1] + 1))
            raw.append((anchor + latency, "READ", conf.outcome_code, CAUSE_CONFOUNDER))

    adr = config.adr
    if adr is not None:
        doi_days = [
            day for day, code_type, code, _ in raw if code_type == "BNF" and code in family_codes
        ]
        if doi_days and rng.random() < adr.reaction_probability:
            latency = int(rng.integers(adr.latency_days[0], adr.latency_days[1] + 1))
            outcome_day = min(doi_days) + latency
            if outcome_day < days:
                raw.append((outcome_day, "READ", adr.outcome_code, CAUSE_ADR))

    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    tracked = set()
    if conf is not None:
        tracked.add(conf.outcome_code)
    if adr is not None:
        tracked.add(adr.outcome_code)

    events = []
    truth = []
    for day, code_type, code, cause in raw:
        date = config.start_date + dt.timedelta(days=day)
        events.append(EventRecord(pid, date, code_type, code))
        if code in tracked and code_type == "READ":
            truth.append(TruthRow(pid, date, cause or CAUSE_BACKGROUND))
    return info, events, truth


def generate_store(config: ScenarioConfig) -> tuple[EventStore, list[TruthRow]]:
    """Generate a cohort directly as an in-memory store plus truth labels."""
    validate_config(config)
    rates = np.array([item.daily_rate for item in config.catalog])
    family_codes = _family_codes(config)
    patients: dict[str, PatientInfo] = {}
    events: dict[str, tuple[EventRecord, ...]] = {}
    truth: list[TruthRow] = []
    max_date: dt.date | None = None
    for ordinal in range(config.patient_count):
        info, evs, rows = _generate_patient(config, ordinal, rates, family_codes)
        patients[info.patient_id] = info
        events[info.patient_id] = tuple(evs)
        truth.extend(rows)
        if evs and (max_date is None or evs[-1].date > max_date):
            max_date = evs[-1].date
    store = EventStore(patients=patients, events=events, db_end_date=max_date)
    return store, truth


def _config_to_dict(config: ScenarioConfig) -> dict:
    payload = {
        "seed": config.seed,
        "patient_count": config.patient_count,
        "observation_days": config.observation_days,
        "start_date": config.start_date.isoformat(),
        "catalog": [
            {"code_type": c.code_type, "code": c.code, "daily_rate": c.daily_rate}
            for c in config.catalog
        ],
    }
    if config.confounder is not None:
        conf = config.confounder
        payload["confounder"] = {
            "antecedent": [list(pair) for pair in conf.antecedent],
            "outcome_code": conf.outcome_code,
            "doi_code": conf.doi_code,
            "prevalence": conf.prevalence,
            "recording_probability": conf.recording_probability,
            "activation_probability": conf.activation_probability,
            "doi_coprescription_probability": conf.doi_coprescription_probability,
        }
    if config.adr is not None:
        adr = config.adr
        payload["adr"] = {
            "doi_items": list(adr.doi_items),
            "outcome_code": adr.outcome_code,
            "reaction_probability": adr.reaction_probability,
            "latency_days": list(adr.latency_days),
        }
    return payload


def load_scenario(path: str) -> ScenarioConfig:
    """Read a scenario.json config file."""
    payload = read_json(path)
    try:
        catalog = tuple(
            CatalogItem(c["code_type"], c["code"], float(c["daily_rate"]))
            for c in payload["catalog"]
        )
        confounder = None
        if "confounder" in payload:
            c = payload["confounder"]
            confounder = PlantedConfounder(
                antecedent=tuple((p[0], p[1]) for p in c["antecedent"]),
                outcome_code=c["outcome_code"],
                doi_code=c["doi_code"],
                prevalence=float(c["prevalence"]),
                recording_probability=float(c["recording_probability"]),
                activation_probability=float(c["activation_probability"]),
                doi_coprescription_probability=float(c["doi_coprescription_probability"]),
            )
        adr = None
        if "adr" in payload:
            a = payload["adr"]
            adr = PlantedAdr(
                doi_items=tuple(a["doi_items"]),
                outcome_code=a["outcome_code"],
                reaction_probability=float(a["reaction_probability"]),
                latency_days=tuple(a.get("latency_days", _OUTCOME_LATENCY)),  # type: ignore[arg-type]
            )
        config = ScenarioConfig(
            seed=int(payload["seed"]),
            patient_count=int(payload["patient_count"]),
            observation_days=int(payload["observation_days"]),
            catalog=catalog,
            start_date=dt.date.fromisoformat(payload.get("start_date", "2000-01-01")),
            confounder=confounder,
            adr=adr,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad scenario config: {exc}", source=path) from None
    validate_config(config)
    return config


def generate(config: ScenarioConfig, out_dir: str) -> dict:
    """Generate a cohort into `out_dir`: patients.csv, events.csv,
    ground_truth.csv, and metadata.json. Byte-identical given a seed."""
    store, truth = generate_store(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "patients.csv", "w", encoding="utf-8") as fh:
        fh.write("patient_id,gender,year_of_birth,registration_date\n")
        for info in store.patients.values():
            fh.write(
                f"{info.patient_id},{info.gender},{info.year_of_birth},"
                f"{info.registration_date.isoformat()}\n"
            )
    with open(out / "events.csv", "w", encoding="utf-8") as fh:
        fh.write("patient_id,date,code_type,code\n")
        for ev in store.iter_events():
            fh.write(f"{ev.patient_id},{ev.date.isoformat()},{ev.code_type},{ev.code}\n")
    with open(out / "ground_truth.csv", "w", encoding="utf-8") as fh:
        fh.write("patient_id,hoi_date,cause\n")
        for row in truth:
            fh.write(f"{row.patient_id},{row.hoi_date.isoformat()},{row.cause}\n")

    summary = {
        "generator": GENERATOR_ID,
        "seed": config.seed,
        "patients": store.patient_count,
        "events": store.event_count,
        "outcome_events": len(truth),
        "expected_filter_rate": expected_filter_rate(config),
        "config": _config_to_dict(config),
    }
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return summary


def read_ground_truth(path: str) -> list[TruthRow]:
    rows = []
    for lineno, (pid, hoi_date, cause) in csv_rows(path, ["patient_id", "hoi_date", "cause"]):
        try:
            rows.append(TruthRow(pid, dt.date.fromisoformat(hoi_date), cause))
        except ValueError as exc:
            raise ParseError(str(exc), source=path, line=lineno) from None
    return rows
