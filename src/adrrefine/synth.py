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
Generation is deterministic: patient k draws from its own stream,
`PCG64(SeedSequence(seed, spawn_key=(k,)))`. The streams' starting states
are computed for a block of patients at a time by numpy's own seeding
steps in array arithmetic (tests check them against numpy), and one
`Generator` is set to each patient's state in turn. Each patient's draws
are separate numpy calls, so numpy's checks of their array arguments run
once per patient; only drawing patients jointly, under a new
`GENERATOR_ID`, would remove them.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import parse_bnf, parse_code, parse_read
from .errors import (
    ConfigError, ParseError, checked, csv_rows, json_int, json_list, json_number, read_json,
)
from .events import (
    _EVENTS_HEADER, _PATIENTS_HEADER, GENDERS, CodeTable, EventStore, _frozen, _parse_entry,
    _store,
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

# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_SEED_BLOCK = 8192  # patients whose stream states are computed together


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


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's `hashmix` (`mult` _MULT_A) or `generate_state` step
    (`mult` _MULT_B) over uint32 words: the hashed words and the next hash
    constant."""
    after = hash_const * mult & _MASK32
    value = (value ^ np.uint32(hash_const)) * np.uint32(after)
    return value ^ (value >> np.uint32(16)), after


def _pcg64_states(seed: int, ordinals: np.ndarray) -> list[tuple[int, int]]:
    """The `(state, inc)` of `PCG64(SeedSequence(seed, spawn_key=(k,)))`
    for each uint64 ordinal k, by numpy's own steps: the pool of the seed
    alone is the same with or without a spawn key, so only mixing in the
    key's 32-bit words (least significant first) and `generate_state(4,
    np.uint64)` run per ordinal, in wrapping uint32 arithmetic."""
    # The seed's own hashmix calls: 4 fill the pool, 12 mix it, and 4 more
    # per seed word beyond the pool's 4.
    seed_words = max(1, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, seed_words - 4), 1 << 32) & _MASK32
    pool = [np.full(len(ordinals), w, dtype=np.uint32) for w in np.random.SeedSequence(seed).pool]
    key_words = 1 + (ordinals >= 1 << 32)
    for shift in (0, 32):
        has_word = key_words > shift // 32
        word = (ordinals >> np.uint64(shift) & np.uint64(_MASK32)).astype(np.uint32)
        for dst in range(4):
            mixed, hash_const = _hashmix(word, hash_const, _MULT_A)
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * mixed
            np.copyto(pool[dst], mixed ^ (mixed >> np.uint32(16)), where=has_word)
    words, hash_const = [], _INIT_B
    for k in range(8):
        word, hash_const = _hashmix(pool[k % 4], hash_const, _MULT_B)
        words.append(word.astype(np.uint64))
    # generate_state pairs words little-endian into uint64s; PCG64 seeds its
    # 128-bit state and increment from (u0, u1) and (u2, u3), high word first.
    u = [(words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    states = []
    for u0, u1, u2, u3 in zip(*u):
        inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
        states.append(((inc + (u0 << 64 | u1)) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _patient_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Patient k's generator for k in range(count), in order: one
    `Generator` set in turn to each `PCG64(SeedSequence(seed,
    spawn_key=(k,)))` state, so each is valid until the next is yielded."""
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for start in range(0, count, _SEED_BLOCK):
        ordinals = np.arange(start, min(count, start + _SEED_BLOCK), dtype=np.uint64)
        for state, inc in _pcg64_states(seed, ordinals):
            bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _generate_patient(
    config: ScenarioConfig, rng: np.random.Generator, rates: np.ndarray,
    catalog: np.ndarray, position: dict[tuple[str, str], int], family: list[bool],
) -> tuple[int, int, list[int], list[int], list[str]]:
    """A patient's gender code, year of birth and rows, unsorted: per row
    a day offset, a code position (into the scenario's sorted codes) and
    a cause, all drawn from `rng`."""
    gender = GENDERS.index("M" if rng.random() < 0.5 else "F")
    year_of_birth = 1930 + int(rng.integers(0, 60))
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
    return gender, year_of_birth, day, code, cause


def _generate(config: ScenarioConfig) -> tuple[EventStore, np.ndarray, list[str]]:
    """The cohort's store, the rows of its outcome events and their causes."""
    validate_config(config)
    return _cohort(config, _patient_rngs(config.seed, config.patient_count))


def _cohort(
    config: ScenarioConfig, rngs: Iterable[np.random.Generator]
) -> tuple[EventStore, np.ndarray, list[str]]:
    """`_generate` for a valid config, patient k drawing from the k-th of
    `rngs`. A code position indexes the scenario's sorted (code_type, code)
    pairs, so rows sorted by (day, position), ties in draw order, are in
    (day, code_type, code) order."""
    conf, adr = config.confounder, config.adr
    outcomes = {("READ", plant.outcome_code) for plant in (conf, adr) if plant is not None}
    planted = [*conf.antecedent, ("BNF", conf.doi_code)] if conf is not None else []
    keys = sorted({(item.code_type, item.code) for item in config.catalog}.union(outcomes, planted))
    position = {key: k for k, key in enumerate(keys)}
    doi = frozenset(parse_bnf(code) for code in adr.doi_items) if adr is not None else ()
    family = [t == "BNF" and doi_matches(parse_bnf(c), doi) for t, c in keys]
    rates = np.array([item.daily_rate for item in config.catalog])
    catalog = np.array([position[item.code_type, item.code] for item in config.catalog])

    genders, years, sizes, day, code, cause = [], [], [], [], [], []
    for rng in rngs:
        g, y, d, k, c = _generate_patient(config, rng, rates, catalog, position, family)
        genders.append(g)
        years.append(y)
        sizes.append(len(d))
        day += d
        code += k
        cause += c
    n = config.patient_count
    pids = tuple(f"s{k:07d}" for k in range(n))
    registered = _frozen(np.full(n, config.start_date.toordinal(), dtype=np.int32))
    gender = _frozen(np.array(genders, np.uint8))
    patients = (pids, dict(zip(pids, range(n))), gender, tuple(years), registered)
    patient = np.repeat(np.arange(n), sizes)
    day = np.array(day, dtype=np.int64) + config.start_date.toordinal()
    code = np.array(code, dtype=np.int64)
    order = np.lexsort((code, day, patient))
    patient, day, code = patient[order], day[order], code[order]
    used, code_id = np.unique(code, return_inverse=True)  # only the codes that occur
    table = CodeTable({keys[k]: _parse_entry(keys[k]) for k in used.tolist()})
    store = _store(patients, (patient, day, code_id, table), None)
    # The rows went in already in store order, so `truth` indexes its columns.
    truth = np.flatnonzero(np.array([key in outcomes for key in keys])[code])
    return store, truth, [cause[r] for r in order[truth].tolist()]


def generate_store(config: ScenarioConfig) -> tuple[EventStore, list[TruthRow]]:
    """Generate a cohort directly as an in-memory store plus truth labels."""
    store, truth, causes = _generate(config)
    columns = store.columns
    rows = zip(columns.patient[truth].tolist(), columns.day[truth].tolist(), causes)
    return store, [TruthRow(columns.pids[p], dt.date.fromordinal(d), c) for p, d, c in rows]


def _dated_lines(
    store: EventStore, rows: np.ndarray | slice, tails: Iterable[str]
) -> Iterator[str]:
    """The CSV line `patient_id,date,tail` of each of the store's `rows`,
    each distinct day formatted once."""
    pids = store.columns.pids
    days, inverse = np.unique(store.columns.day[rows], return_inverse=True)
    dates = [dt.date.fromordinal(d).isoformat() for d in days.tolist()]
    cells = zip(store.columns.patient[rows].tolist(), inverse.tolist(), tails)
    return (f"{pids[p]},{dates[d]},{tail}\n" for p, d, tail in cells)


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

    columns = store.columns
    date = config.start_date.isoformat()  # every patient's registration date
    with open(out / "patients.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_PATIENTS_HEADER) + "\n")
        genders = map(GENDERS.__getitem__, columns.gender.tolist())
        fields = zip(columns.pids, genders, columns.year_of_birth)
        fh.writelines(f"{pid},{g},{y},{date}\n" for pid, g, y in fields)
    code_text = [f"{code_type},{code}" for code_type, code in store.code_table]
    with open(out / "events.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_EVENTS_HEADER) + "\n")
        codes = map(code_text.__getitem__, columns.code.tolist())
        fh.writelines(_dated_lines(store, slice(None), codes))
    with open(out / "ground_truth.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(_TRUTH_HEADER) + "\n")
        fh.writelines(_dated_lines(store, truth, causes))

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
