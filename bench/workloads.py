"""The benchmark's workloads: inputs from a seed, one pipeline pass, checks.

Every pass calls the library through module attributes (`events.load`,
`refining.refine`, ...) at call time, so the tracer's wrappers see it.
Checks run after the pass, outside the timed region, and record failures
against the operation whose output they examine; they never raise.

- cohort: the criterion-5 confounded scenario, read from CSV and refined
  for one signal. Per-event Python dominates; mining is a few percent.
- wide: the criterion-7 corpus mined for one consequent. The counting
  kernel dominates; there are no events, signals or refine.
- screen: mine every consequent once, round-trip the rules through CSV,
  then refine a grid of signals. Rules are the heavy object.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adrrefine import baskets, events, mining, signals, synth
from adrrefine.codes import Item, ItemKind, parse_bnf, parse_read
from oracles import brute_force_rules, chi2_counts_oracle

# `adrrefine.refine` the attribute is the function; this is the module.
refining = importlib.import_module("adrrefine.refine")

SCENARIO_SPAN = 1460
RULE_SAMPLES = 200
RULE_PROBES = 200
PLANTED_MIN_INSTANCES = 60


class OpFailed(Exception):
    """An operation raised; the rest of the pass depends on it."""


class Ops:
    """The operations of one pass: which completed and which failed.

    An operation is a load, a mining call, a rules-file round trip or
    one signal refined. A check that finds a wrong output marks the
    operation failed; it does not stop the run.
    """

    def __init__(self):
        self.done: set[str] = set()
        self.failed: dict[str, str] = {}

    @contextmanager
    def op(self, label: str):
        try:
            yield
        except Exception as exc:
            self.failed[label] = f"raised {exc!r}"
            raise OpFailed(label) from exc
        self.done.add(label)

    def fail(self, label: str, why: str) -> None:
        self.failed.setdefault(label, why)


@dataclass
class Pass:
    wall: float
    signal_times: list[float]
    mine_s: float
    outputs: dict = field(repr=False)


@dataclass(frozen=True)
class CsvInputs:
    patients: str
    events: str
    meta: dict


def _signal_id(tracer, value):
    if tracer is not None:
        tracer.signal = value


def _presence_catalog(entries):
    return tuple(
        synth.CatalogItem(code_type, code, synth.daily_rate_for_presence(p, SCENARIO_SPAN))
        for code_type, code, p in entries
    )


# ---- shared checks ----------------------------------------------------


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def rule_measure_problem(rule, count_xy: int, count_x: int, count_y: int, m: int) -> str | None:
    """Compare one rule's five measures with values from counts."""
    want = (
        count_xy / m,
        count_x / m,
        count_xy / count_x,
        count_xy * m / (count_x * count_y),
        chi2_counts_oracle(count_xy, count_x, count_y, m),
    )
    got = (rule.support, rule.left_support, rule.confidence, rule.lift, rule.chi_squared)
    if not all(_isclose(g, w) for g, w in zip(got, want)):
        return f"rule {sorted(map(str, rule.antecedent))}=>{rule.consequent}: {got} != {want}"
    return None


def recount_problems(basket_sets, rules, consequents, rng, constraints) -> list[str]:
    """Recount a seeded sample of rules with a membership matrix of our own.

    Emitted rules must carry the measures their counts give and meet the
    floors. Random probe antecedents (drawn from frequent items, so that
    some qualify) must be emitted exactly when they meet the floors.
    """
    universe = sorted({it for b in basket_sets for it in b}, key=str)
    col = {it: j for j, it in enumerate(universe)}
    m = len(basket_sets)
    member = np.zeros((len(universe), m), dtype=bool)
    for ordinal, b in enumerate(basket_sets):
        member[[col[it] for it in b], ordinal] = True
    counts = member.sum(axis=1)

    def count(items) -> int:
        return int(np.logical_and.reduce(member[[col[it] for it in items]], axis=0).sum())

    problems = []
    for k in rng.choice(len(rules), size=min(RULE_SAMPLES, len(rules)), replace=False):
        r = rules[int(k)]
        if any(it not in col for it in r.antecedent) or r.consequent not in col:
            problems.append(f"rule mentions an item in no basket: {r}")
            continue
        cx = count(r.antecedent)
        cxy = count([*r.antecedent, r.consequent])
        if cx / m < constraints.min_left_support or cxy / cx < constraints.min_confidence:
            problems.append(f"rule below the floors: {r}")
        problem = rule_measure_problem(r, cxy, cx, int(counts[col[r.consequent]]), m)
        if problem:
            problems.append(problem)

    keys = {(r.antecedent, r.consequent) for r in rules}
    frequent = [universe[j] for j in np.argsort(-counts, kind="stable")[:60]]
    for _ in range(RULE_PROBES):
        consequent = consequents[int(rng.integers(len(consequents)))]
        pool = [it for it in frequent if it != consequent]
        size = int(rng.integers(1, constraints.max_antecedent + 1))
        antecedent = frozenset(pool[int(j)] for j in rng.choice(len(pool), size, replace=False))
        cx = count(antecedent)
        qualifies = (
            cx > 0
            and cx / m >= constraints.min_left_support
            and count([*antecedent, consequent]) / cx >= constraints.min_confidence
        )
        if qualifies != ((antecedent, consequent) in keys):
            state = "missing" if qualifies else "emitted below the floors"
            problems.append(f"probe {sorted(map(str, antecedent))}=>{consequent}: {state}")
    return problems


def report_problems(report, path: str) -> list[str]:
    """Report invariants; the adjusted risk must equal its quotient exactly."""
    n, e, x = report.instance_count, report.expected_count, report.exposure_count
    problems = []
    if not 0 <= e <= n <= x:
        problems.append(f"counts out of order: expected={e} instances={n} exposed={x}")
    if report.adjusted_risk != (n - e) / x:
        problems.append(f"adjusted risk {report.adjusted_risk!r} != ({n}-{e})/{x}")
    if report.absolute_risk != n / x:
        problems.append(f"absolute risk {report.absolute_risk!r} != {n}/{x}")
    if len(report.assessments) != n or sum(a.expected for a in report.assessments) != e:
        problems.append("assessments disagree with the counts")
    with open(path) as fh:
        written = json.load(fh)
    if (written["instance_count"], written["expected_count"]) != (n, e):
        problems.append("written report disagrees with the in-memory report")
    return problems


def _file_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_pinned_reports(reports, pinned: dict, ops: Ops, notes: dict) -> None:
    """Each written report.json must have its pinned sha256 (default seed)."""
    digests = {label: _file_sha256(path) for label, _, _, path in reports}
    notes["report_sha256"] = digests
    for label, digest in digests.items():
        if pinned.get(label) != digest:
            ops.fail(label, f"report sha256 {digest} != pinned {pinned.get(label)}")


def _check(ops: Ops, label: str, fn, *args) -> None:
    """Run one check; its problems (or its own exception) fail `label`."""
    try:
        problems = fn(*args)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    if problems:
        ops.fail(label, "; ".join(problems[:3]))


def _item_total(db) -> int:
    return sum(db.item_count(it) for it in db.items)


# ---- workloads --------------------------------------------------------


class Workload:
    name: str
    default_seed: int
    sizes: dict
    # Every item is a candidate consequent (`mine_all_rules`).
    all_consequents = False

    def planned_ops(self) -> list[str]:
        raise NotImplementedError

    def open(self, seed: int, work_dir: Path) -> CsvInputs:
        """The pipeline's input: here the CSV files `setup` wrote."""
        meta = json.loads((work_dir / "metadata.json").read_text())
        return CsvInputs(str(work_dir / "patients.csv"), str(work_dir / "events.csv"), meta)

    def single_worker_mine_s(self, inputs) -> float | None:
        return None

    def check_load(self, out: dict, inputs: CsvInputs) -> list[str]:
        store, meta = out["store"], inputs.meta
        got = (store.patient_count, store.event_count)
        want = (meta["patients"], meta["events"])
        return [] if got == want else [f"loaded (patients, events) {got} != written {want}"]

    def fingerprints(self, out: dict) -> dict:
        db = out["db"]
        fp = {"load": (db.m, _item_total(db)), "mine": hash(tuple(out["rules"]))}
        if "store" in out:
            fp["load"] += (out["store"].event_count, out["excluded"].event_count)
        if "read_rules" in out:
            fp["rules_roundtrip"] = hash(tuple(out["read_rules"]))
        for label, _spec, report, _path in out.get("reports", ()):
            fp[label] = hash(report)
        return fp

    def facts(self, out: dict) -> dict:
        """Sizes of one pass's data, for the per-layer metrics."""
        db = out["db"]
        reports = [r for _, _, r, _ in out.get("reports", ())]
        bits = getattr(db, "bits", None)
        facts = {
            "m": db.m,
            "items": len(db.items),
            "nnz": _item_total(db),
            "index_mb": bits.nbytes / 2**20 if bits is not None else 0.0,
            "rules": len(out["rules"]),
            "exposed": sum(r.exposure_count for r in reports),
            "instances": sum(r.instance_count for r in reports),
            "matched": sum(r.matched_count for r in reports),
            "expected": sum(r.expected_count for r in reports),
            "hoi_rules": sum(r.hoi_rule_count for r in reports),
            "rule_checks": sum(r.instance_count * r.hoi_rule_count for r in reports),
        }
        if "store" in out:
            facts["rows"] = out["store"].event_count
            facts["excluded_rows"] = out["store"].event_count - out["excluded"].event_count
        if "rules_path" in out:
            facts["rules_file_mb"] = Path(out["rules_path"]).stat().st_size / 2**20
        return facts


# Criterion 5's 8-item background catalog and planted confounder.
COHORT_CATALOG = _presence_catalog(
    [
        ("BNF", "5.1.0.0", 0.50),
        ("READ", "C10..", 0.60),
        ("READ", "H33..", 0.55),
        ("BNF", "2.5.0.0", 0.60),
        ("READ", "J31..", 0.55),
        ("BNF", "3.4.0.0", 0.60),
        ("READ", "F11..", 0.55),
        ("READ", "M16..", 0.60),
    ]
)
CONFOUNDER = synth.PlantedConfounder(
    antecedent=(("READ", "K55.."), ("BNF", "9.9.0.0")),
    outcome_code="N771.",
    doi_code="5.1.0.0",
    prevalence=0.06,
    recording_probability=0.7,
    activation_probability=0.08,
    doi_coprescription_probability=0.3,
)


class Cohort(Workload):
    name = "cohort"
    default_seed = 51001
    sizes = {"patients": 10_000}
    # At the default seed: the mined rule count and the report's sha256.
    # The oracle mines the baskets under test, so only these catch a
    # wrong store, basket or signal count.
    pinned_rules = 122
    pinned = {"signal": "be0c65708c5682ba6802cf9ea77c2df29265f33e1f6aa429de004704f4915f09"}
    outcome = Item(ItemKind.READ, "N77..")
    spec = signals.SignalSpec(
        doi=frozenset([parse_bnf("5.1.0.0")]), hoi=parse_read("N771."), window=(1, 60)
    )

    def config(self, seed: int) -> synth.ScenarioConfig:
        return synth.ScenarioConfig(
            seed=seed,
            patient_count=self.sizes["patients"],
            observation_days=SCENARIO_SPAN,
            catalog=COHORT_CATALOG,
            confounder=CONFOUNDER,
        )

    def setup(self, seed: int, work_dir: Path) -> dict:
        return synth.generate(self.config(seed), str(work_dir))

    def planned_ops(self) -> list[str]:
        return ["load", "mine", "signal"]

    def run_pass(self, inputs: CsvInputs, workers: int, ops: Ops, tracer, work_dir: Path) -> Pass:
        t0 = time.perf_counter()
        with ops.op("load"):
            store = events.load(inputs.patients, inputs.events)
            excluded = events.apply_prescription_exclusions(store)
            db = baskets.build_database(store)
        with ops.op("mine"):
            t = time.perf_counter()
            rules = mining.mine_rules(db, self.outcome, workers=workers)
            mine_s = time.perf_counter() - t
        path = str(work_dir / "report.json")
        with ops.op("signal"):
            _signal_id(tracer, 0)
            t = time.perf_counter()
            report = refining.refine(self.spec, rules, excluded)
            signal_s = time.perf_counter() - t
            refining.write_report_json(report, path)
            refining.write_report_csv(report, str(work_dir / "report.csv"))
            _signal_id(tracer, None)
        wall = time.perf_counter() - t0
        outputs = {
            "store": store,
            "excluded": excluded,
            "db": db,
            "rules": rules,
            "reports": [("signal", self.spec, report, path)],
        }
        return Pass(wall, [signal_s], mine_s, outputs)

    def check(self, out: dict, inputs: CsvInputs, seed: int, ops: Ops, notes: dict) -> None:
        _check(ops, "load", self.check_load, out, inputs)
        _check(ops, "mine", self.check_oracle, out)
        _label, _spec, report, path = out["reports"][0]
        _check(ops, "signal", report_problems, report, path)
        _check(ops, "signal", self.check_planted_rate, report, notes)
        if seed == self.default_seed:
            rules = len(out["rules"])
            if rules != self.pinned_rules:
                ops.fail("mine", f"{rules} rules != pinned {self.pinned_rules}")
            check_pinned_reports(out["reports"], self.pinned, ops, notes)

    def check_oracle(self, out: dict) -> list[str]:
        c = mining.MiningConstraints()
        oracle = brute_force_rules(
            [set(b) for _, b in out["db"].baskets],
            self.outcome,
            c.min_left_support,
            c.min_confidence,
            c.max_antecedent,
        )
        rules = out["rules"]
        if {r.antecedent for r in rules} != set(oracle):
            return [f"{len(rules)} mined antecedents differ from {len(oracle)} brute-force ones"]
        problems = []
        for r in rules:
            got = (r.support, r.left_support, r.confidence, r.lift, r.chi_squared)
            if not all(_isclose(g, w) for g, w in zip(got, oracle[r.antecedent])):
                problems.append(f"rule {sorted(map(str, r.antecedent))}: {got} != brute force")
        return problems

    def check_planted_rate(self, report, notes: dict) -> list[str]:
        """Criterion 5: the flagged share is within 3 SE of the recording
        probability, tested when there are enough instances."""
        n = report.instance_count
        target = synth.expected_filter_rate(self.config(0))
        if n < PLANTED_MIN_INSTANCES:
            notes["planted_rate"] = f"not tested: {n} instances < {PLANTED_MIN_INSTANCES}"
            return []
        observed = report.expected_count / n
        se = math.sqrt(target * (1 - target) / n)
        notes["planted_rate"] = f"flagged {observed:.3f} vs {target} (n={n}, 3se={3 * se:.3f})"
        return [] if abs(observed - target) <= 3 * se else [notes["planted_rate"]]


class Wide(Workload):
    name = "wide"
    default_seed = 7077
    sizes = {"baskets": 10_000, "items": 1_000, "consequent_index": 120}
    # Rule count and rules per antecedent size at the default seed.
    pinned = {"rules": 192805, "by_size": {1: 994, 2: 64917, 3: 126894}}

    def setup(self, seed: int, work_dir: Path) -> dict:
        """The criterion-7 generator: Zipf-like presence over 1000 items."""
        m, n_items = self.sizes["baskets"], self.sizes["items"]
        rng = np.random.default_rng(seed)
        ranks = np.arange(1, n_items + 1)
        presence = np.minimum(0.5, 0.8 * ranks**-0.6)
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        items = [Item(ItemKind.READ, f"{letters[k % 26]}{k // 26:02d}..") for k in range(n_items)]
        members: list[list[Item]] = [[] for _ in range(m)]
        for idx in range(n_items):
            for b in np.nonzero(rng.random(m) < presence[idx])[0]:
                members[b].append(items[idx])
        corpus = [(f"p{j}", frozenset(basket)) for j, basket in enumerate(members)]
        return {"corpus": corpus, "consequent": items[self.sizes["consequent_index"]]}

    def open(self, seed: int, work_dir: Path) -> dict:
        """The in-memory corpus is the input; build it again, untimed."""
        return self.setup(seed, work_dir)

    def planned_ops(self) -> list[str]:
        return ["load", "mine"]

    def run_pass(self, inputs: dict, workers: int, ops: Ops, tracer, work_dir: Path) -> Pass:
        t0 = time.perf_counter()
        with ops.op("load"):
            db = baskets.BasketDatabase(inputs["corpus"])
        with ops.op("mine"):
            t = time.perf_counter()
            rules = mining.mine_rules(db, inputs["consequent"], mining.MiningConstraints(), workers=workers)
            mine_s = time.perf_counter() - t
        wall = time.perf_counter() - t0
        # There is no refine here: one more signal costs one more mining call.
        return Pass(wall, [mine_s], mine_s, {"db": db, "rules": rules})

    def single_worker_mine_s(self, inputs: dict) -> float:
        db = baskets.BasketDatabase(inputs["corpus"])
        t = time.perf_counter()
        mining.mine_rules(db, inputs["consequent"], mining.MiningConstraints(), workers=1)
        return time.perf_counter() - t

    def check(self, out: dict, inputs: dict, seed: int, ops: Ops, notes: dict) -> None:
        _check(ops, "load", self.check_load, out, inputs)
        rng = np.random.default_rng(seed)
        sets = [b for _, b in inputs["corpus"]]
        _check(
            ops, "mine", recount_problems, sets, out["rules"], [inputs["consequent"]], rng,
            mining.MiningConstraints(),
        )
        if seed == self.default_seed:
            _check(ops, "mine", self.check_pinned, out["rules"])

    def check_load(self, out: dict, inputs: dict) -> list[str]:
        db = out["db"]
        got = (db.m, len(db.items))
        want = (self.sizes["baskets"], self.sizes["items"])
        return [] if got == want else [f"database (baskets, items) {got} != {want}"]

    def check_pinned(self, rules) -> list[str]:
        by_size: dict[int, int] = {}
        for r in rules:
            by_size[len(r.antecedent)] = by_size.get(len(r.antecedent), 0) + 1
        got = {"rules": len(rules), "by_size": dict(sorted(by_size.items()))}
        return [] if got == self.pinned else [f"pinned counts {self.pinned} != {got}"]


def _screen_catalog():
    # 16 level-3 diagnosis and 8 level-2 drug codes, Zipf-like presence.
    codes = [
        ("BNF", "5.1.0.0"), ("READ", "C10.."), ("READ", "H33.."), ("BNF", "2.5.0.0"),
        ("READ", "J31.."), ("READ", "F11.."), ("BNF", "3.4.0.0"), ("READ", "M16.."),
        ("READ", "G30.."), ("BNF", "1.1.0.0"), ("READ", "E11.."), ("READ", "H06.."),
        ("BNF", "4.7.0.0"), ("READ", "R06.."), ("READ", "B34.."), ("BNF", "6.1.0.0"),
        ("READ", "A53.."), ("READ", "D21.."), ("BNF", "10.1.0.0"), ("READ", "L40.."),
        ("READ", "P12.."), ("BNF", "2.12.0.0"), ("READ", "G20.."), ("BNF", "13.5.0.0"),
    ]
    return _presence_catalog(
        [(t, c, min(0.6, 0.7 * rank**-0.6)) for rank, (t, c) in enumerate(codes, start=1)]
    )


class Screen(Workload):
    name = "screen"
    default_seed = 52001
    sizes = {"patients": 5_000, "signals": 12}
    all_consequents = True
    families = ("5.1.0.0", "3.4.0.0", "2.5.0.0", "1.1.0.0")
    outcomes = ("N771.", "N772.", "H33..")
    # sha256 of each written report.json at the default seed.
    pinned = {
        "signal:5.1.0.0>N771.": "a973cc0431546437d7cb8d6a87ef64927931fe6d2264b6289b200479d630700d",
        "signal:5.1.0.0>N772.": "011c0f7c4f797f53613680ecd37ade8d403ea565d846f33d09e98946f3e7e3fd",
        "signal:5.1.0.0>H33..": "87c0af902fd7720566edbc5fc45a8cf906bddf42ef233f79f03cbf1a5533382f",
        "signal:3.4.0.0>N771.": "6cb97a9022bc680e4ce6e9194c25074d45fd3be014ada0b191ea423cf340bad3",
        "signal:3.4.0.0>N772.": "b1b878a4c93052323fead9cea8cd348e8d2fa590ff1c19e17ddddc7c3dd7dd93",
        "signal:3.4.0.0>H33..": "690955e5a997852530d85804de843938123729b443e98d9f171e0f33f4ecce12",
        "signal:2.5.0.0>N771.": "bc30de777a6a936cbd8b292106d5a6aa96067b572aa3f0f8dd445610e3b40cd4",
        "signal:2.5.0.0>N772.": "907fe07cfe2b8a87302aadca706e22cb8587ff8cdb05e60f90e8208f40a6e0ed",
        "signal:2.5.0.0>H33..": "8ccfa602e912ec6bd52608a5d24e219ac7d950f3a1515face3f1fee55cf7f843",
        "signal:1.1.0.0>N771.": "4eda11cb67b23390f0de28c6c22a69b73068b6043c0a99150e405c52f6801302",
        "signal:1.1.0.0>N772.": "8eba97bb057594549c49f192037de6a418c1f4829a9ef16d055b19d8982c0d57",
        "signal:1.1.0.0>H33..": "ef59fcb011ec2eaa8646352f570f0663372d9d47c20c222fd9f9e5e1ce9d9e7a",
    }

    def __init__(self):
        self.grid = [
            (
                f"signal:{family}>{outcome}",
                signals.SignalSpec(
                    doi=frozenset([parse_bnf(family)]), hoi=parse_read(outcome), window=(1, 60)
                ),
            )
            for family in self.families
            for outcome in self.outcomes
        ]

    def config(self, seed: int) -> synth.ScenarioConfig:
        return synth.ScenarioConfig(
            seed=seed,
            patient_count=self.sizes["patients"],
            observation_days=SCENARIO_SPAN,
            catalog=_screen_catalog(),
            confounder=CONFOUNDER,
            adr=synth.PlantedAdr(
                doi_items=("3.4.0.0",), outcome_code="N772.", reaction_probability=0.02
            ),
        )

    def setup(self, seed: int, work_dir: Path) -> dict:
        return synth.generate(self.config(seed), str(work_dir))

    def planned_ops(self) -> list[str]:
        return ["load", "mine", "rules_roundtrip", *(label for label, _ in self.grid)]

    def run_pass(self, inputs: CsvInputs, workers: int, ops: Ops, tracer, work_dir: Path) -> Pass:
        rules_path = str(work_dir / "rules.csv")
        t0 = time.perf_counter()
        with ops.op("load"):
            store = events.load(inputs.patients, inputs.events)
            db = baskets.build_database(store)
            excluded = events.apply_prescription_exclusions(store)
        with ops.op("mine"):
            t = time.perf_counter()
            rules = mining.mine_all_rules(db, workers=workers)
            mine_s = time.perf_counter() - t
        with ops.op("rules_roundtrip"):
            mining.write_rules_csv(rules, rules_path)
            read_rules = mining.read_rules_csv(rules_path)
        reports, signal_times = [], []
        for k, (label, spec) in enumerate(self.grid):
            path = str(work_dir / f"report-{k:02d}.json")
            try:
                with ops.op(label):
                    _signal_id(tracer, k)
                    t = time.perf_counter()
                    report = refining.refine(spec, read_rules, excluded)
                    signal_times.append(time.perf_counter() - t)
                    refining.write_report_json(report, path)
                    refining.write_report_csv(report, path[: -len(".json")] + ".csv")
                reports.append((label, spec, report, path))
            except OpFailed:
                pass
            finally:
                _signal_id(tracer, None)
        wall = time.perf_counter() - t0
        outputs = {
            "store": store,
            "excluded": excluded,
            "db": db,
            "rules": rules,
            "read_rules": read_rules,
            "rules_path": rules_path,
            "reports": reports,
        }
        return Pass(wall, signal_times, mine_s, outputs)

    def check(self, out: dict, inputs: CsvInputs, seed: int, ops: Ops, notes: dict) -> None:
        _check(ops, "load", self.check_load, out, inputs)
        rng = np.random.default_rng(seed)
        db = out["db"]
        _check(
            ops, "mine", recount_problems, [b for _, b in db.baskets], out["rules"],
            list(db.items), rng, mining.MiningConstraints(),
        )
        _check(ops, "rules_roundtrip", self.check_roundtrip, out)
        for label, spec, report, path in out["reports"]:
            _check(ops, label, report_problems, report, path)
            _check(ops, label, self.check_rounding_flip, out, spec, report)
        if seed == self.default_seed:
            check_pinned_reports(out["reports"], self.pinned, ops, notes)

    def check_roundtrip(self, out: dict) -> list[str]:
        """The file keeps every rule; its numbers keep 12 significant digits."""
        mem, back = out["rules"], out["read_rules"]
        if len(mem) != len(back):
            return [f"{len(mem)} rules written, {len(back)} read back"]
        for a, b in zip(mem, back):
            if (a.antecedent, a.consequent) != (b.antecedent, b.consequent):
                return [f"rule order or content changed at {a}"]
            pairs = zip(
                (a.support, a.left_support, a.confidence, a.lift, a.chi_squared),
                (b.support, b.left_support, b.confidence, b.lift, b.chi_squared),
            )
            if not all(math.isclose(x, y, rel_tol=1e-11, abs_tol=1e-300) for x, y in pairs):
                return [f"rule numbers changed beyond 12 digits at {a}"]
        return []

    def check_rounding_flip(self, out: dict, spec, report) -> list[str]:
        """An instance's class must not depend on whether its rules came
        from memory or from the rules file. Only outcomes with a rule
        whose lift crosses the threshold in the file are re-assessed."""
        threshold = refining.DEFAULT_LIFT_THRESHOLD
        mem = refining.extract_hoi_rules(out["rules"], spec.hoi)
        back = refining.extract_hoi_rules(out["read_rules"], spec.hoi)
        if all((a.lift > threshold) == (b.lift > threshold) for a, b in zip(mem, back)):
            return []
        flipped = 0
        for a in report.assessments:
            basket = baskets.pre_outcome_basket(out["excluded"], a.instance.patient_id, a.instance.hoi_date)
            if any(r.lift > threshold for r in mem if r.antecedent <= basket) != a.expected:
                flipped += 1
        return [f"{flipped} instances change class with the rules file's rounding"] if flipped else []


WORKLOADS = {w.name: w for w in (Cohort(), Wide(), Screen())}
