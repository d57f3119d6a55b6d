import argparse
import datetime as dt
import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrrefine.cli import DEFAULTS, build_parser, main
from adrrefine.refine import rule_consequent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scenario_file(tmp_path, **overrides) -> str:
    payload = {
        "seed": 42,
        "patient_count": 120,
        "observation_days": 1460,
        "catalog": [
            {"code_type": "BNF", "code": "5.1.0.0", "daily_rate": 0.0005},
            {"code_type": "READ", "code": "C10..", "daily_rate": 0.0004},
        ],
        "confounder": {
            "antecedent": [["READ", "K55.."]],
            "outcome_code": "N771.",
            "doi_code": "5.1.0.0",
            "prevalence": 0.2,
            "recording_probability": 0.7,
            "activation_probability": 0.5,
            "doi_coprescription_probability": 0.6,
        },
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestIngest:
    def test_worked_example_counts(self, capsys, worked_example_dir):
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["patients"] == 4
        assert payload["events"] == 20
        assert payload["eligible_patients"] == 2
        assert "stage=load" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "ingest",
            "--patients", str(tmp_path / "nope.csv"),
            "--events", str(tmp_path / "nope2.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_eligible_count_is_the_mined_basket_count(self, capsys, tmp_path):
        from adrrefine.baskets import build_database
        from adrrefine.events import apply_prescription_exclusions, eligible_patients, load

        scenario = scenario_file(tmp_path, patient_count=300)
        assert run_cli(capsys, "synth", "--spec", scenario, "--out", str(tmp_path / "c"))[0] == 0
        cohort = (str(tmp_path / "c" / "patients.csv"), str(tmp_path / "c" / "events.csv"))
        code, out, _ = run_cli(capsys, "ingest", "--patients", cohort[0], "--events", cohort[1])
        assert code == 0
        store = load(*cohort)
        m = build_database(store).m
        # The exclusions change eligibility here, so the two counts differ.
        assert len(eligible_patients(apply_prescription_exclusions(store))) != m
        assert json.loads(out)["eligible_patients"] == m

    @pytest.mark.parametrize("months", ["1000", str(10**18), str(10**19)])
    def test_long_exclusion_window(self, capsys, worked_example_dir, months):
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--exclusion-months", months,
        )
        assert code == 0, err
        assert json.loads(out)["events_after_exclusions"] == 10

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--exclusion-months", "-3", "exclusion_months"),
         ("--end-buffer-days", "-30", "end_buffer_days")],
    )
    def test_negative_exclusion_window_exits_one(
        self, capsys, worked_example_dir, flag, value, name
    ):
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            flag, value,
        )
        assert code == 1
        assert f"error: {name} must be >= 0: {value}" in err
        assert out == ""

    def test_corrupt_row_exits_two_with_line(self, capsys, tmp_path):
        patients = tmp_path / "patients.csv"
        events = tmp_path / "events.csv"
        patients.write_text(
            "patient_id,gender,year_of_birth,registration_date\np1,M,1950,2000-01-01\n"
        )
        events.write_text("patient_id,date,code_type,code\np1,garbage,READ,A11..\n")
        code, _, err = run_cli(
            capsys, "ingest", "--patients", str(patients), "--events", str(events)
        )
        assert code == 2
        assert ":2:" in err


class TestMine:
    def test_rules_csv_written(self, capsys, worked_example_dir, tmp_path):
        out_file = tmp_path / "rules.csv"
        code, out, _ = run_cli(
            capsys,
            "mine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--out", str(out_file),
            "--min-active-months", "0",
            "--min-left-support", "0.25",
            "--min-confidence", "0.5",
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "antecedent,consequent,left_support,support,confidence,lift,chi_squared"
        assert len(lines) > 1

    def test_max_antecedent_one(self, capsys, worked_example_dir, tmp_path):
        out_file = tmp_path / "rules.csv"
        code, _, _ = run_cli(
            capsys,
            "mine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--out", str(out_file),
            "--min-active-months", "0",
            "--max-antecedent", "1",
            "--min-left-support", "0.25",
        )
        assert code == 0
        for line in out_file.read_text().strip().splitlines()[1:]:
            assert "|" not in line.split(",")[0]

    def test_full_confidence_yields_header_only_when_no_perfect_rule(
        self, capsys, worked_example_dir, tmp_path
    ):
        out_file = tmp_path / "rules.csv"
        code, _, _ = run_cli(
            capsys,
            "mine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--out", str(out_file),
            "--min-active-months", "0",
            "--min-left-support", "0.9",
            "--min-confidence", "1.0",
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        # items shared by every basket imply each other perfectly; none here
        antecedents = [l.split(",")[0] for l in lines[1:]]
        assert all(a for a in antecedents)

    def test_spec_restricts_consequent(self, capsys, worked_example_dir, tmp_path):
        out_file = tmp_path / "rules.json"
        code, _, _ = run_cli(
            capsys,
            "mine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--spec", str(worked_example_dir / "signal.json"),
            "--out", str(out_file),
            "--min-active-months", "0",
            "--min-left-support", "0.25",
            "--min-confidence", "0.01",
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload
        assert all(rule["consequent"] == "H05.." for rule in payload)


class TestMineAgainstOracle:
    def test_cli_rules_match_brute_force(self, capsys, tmp_path):
        import random

        from adrrefine.mining import read_rules_csv
        from conftest import write_cohort
        from oracles import brute_force_rules

        rng = random.Random(88)
        codes = [f"A{i:02d}.." for i in range(8)]
        patients_rows, events_rows = [], []
        baskets = []
        for i in range(40):
            patients_rows.append(f"p{i:02d},{rng.choice('MF')},1950,2000-01-01")
            chosen = [c for c in codes if rng.random() < 0.4]
            for k, code in enumerate(chosen):
                events_rows.append(f"p{i:02d},20{1 + k:02d}-06-01,READ,{code}")
        patients, events = write_cohort(tmp_path, patients_rows, events_rows)
        out_file = tmp_path / "rules.csv"
        code, _, _ = run_cli(
            capsys,
            "mine",
            "--patients", patients,
            "--events", events,
            "--out", str(out_file),
            "--min-active-months", "0",
            "--min-left-support", "0.1",
            "--min-confidence", "0.2",
        )
        assert code == 0
        mined = read_rules_csv(str(out_file))

        from adrrefine.events import load as load_store
        from adrrefine.baskets import pre_outcome_basket

        store = load_store(patients, events)
        for pid in store.patients:
            whole = pre_outcome_basket(store, pid, dt.date.max, include_same_day=True)
            baskets.append({it.token for it in whole})
        consequents = {r.consequent for r in mined}
        for consequent in consequents:
            oracle = brute_force_rules(baskets, consequent.token, 0.1, 0.2, 3)
            got = {
                frozenset(r.antecedent_tokens)
                for r in mined
                if r.consequent == consequent
            }
            assert got == {frozenset(k) for k in oracle}


class TestSignal:
    def test_worked_example_signal(self, capsys, worked_example_dir, tmp_path):
        out_file = tmp_path / "instances.csv"
        code, out, _ = run_cli(
            capsys,
            "signal",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--spec", str(worked_example_dir / "signal.json"),
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out)
        # exclusions drop patient 4's prescription near the database end
        assert payload["instance_count"] == 2
        assert payload["exposure_count"] == 3
        assert out_file.exists()

    def test_zero_exposure_doi(self, capsys, worked_example_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"doi_items": ["9.9.0.0"], "hoi_code": "H05.."}))
        out_file = tmp_path / "instances.csv"
        code, out, _ = run_cli(
            capsys,
            "signal",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--spec", str(spec),
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ab_ratio"] == 0.0
        assert payload["instance_count"] == 0
        assert out_file.read_text().strip() == "patient_id,doi_date,hoi_date"

    def test_window_override_narrows(self, capsys, worked_example_dir, tmp_path):
        out_file = tmp_path / "instances.csv"
        code, out, _ = run_cli(
            capsys,
            "signal",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--spec", str(worked_example_dir / "signal.json"),
            "--out", str(out_file),
            "--window-start", "1",
            "--window-end", "10",
        )
        assert code == 0
        assert json.loads(out)["instance_count"] == 1  # only the 1-day gap remains


class TestRefine:
    def test_worked_example_with_supplied_instances(self, capsys, worked_example_dir, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(worked_example_dir / "rules.csv"),
            "--spec", str(worked_example_dir / "signal.json"),
            "--instances", str(worked_example_dir / "instances.csv"),
            "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["instance_count"] == 4
        assert payload["expected_count"] == 3
        report = json.loads((out_dir / "report.json").read_text())
        # exposure here comes from the 4-patient store, not the reference 25
        assert report["expected_count"] == 3
        assert report["avg_max_confidence_all"] == 0.0225
        assert report["avg_max_chi_all"] == 150.0
        assert (out_dir / "report.csv").exists()

    @pytest.mark.parametrize(
        "instances, sha256",
        [
            (False, "52c285a09c94dd0be3c53b7c3791741aed85e0d87eee876c249260c81f04b58a"),
            (True, "ab2ab5d9aed7be33a9af9e4c702b7cfc33a952ba4da58323497480d742f6bf0d"),
        ],
    )
    def test_worked_example_report_bytes(
        self, capsys, worked_example_dir, tmp_path, instances, sha256
    ):
        """report.json's bytes, with and without supplied instances, are pinned."""
        given = ["--instances", str(worked_example_dir / "instances.csv")] if instances else []
        code, _, _ = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(worked_example_dir / "rules.csv"),
            "--spec", str(worked_example_dir / "signal.json"),
            *given,
            "--out", str(tmp_path / "report"),
        )
        assert code == 0
        report = (tmp_path / "report" / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == sha256

    def test_zero_exposure_is_domain_error(self, capsys, worked_example_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"doi_items": ["9.9.0.0"], "hoi_code": "H05.."}))
        code, _, err = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(worked_example_dir / "rules.csv"),
            "--spec", str(spec),
            "--out", str(tmp_path / "report"),
        )
        assert code == 1
        assert "error:" in err

    def test_malformed_rule_exits_two_with_line(self, capsys, worked_example_dir, tmp_path):
        rules = tmp_path / "bad.csv"
        rules.write_text(
            "antecedent,consequent,left_support,support,confidence,lift,chi_squared\n"
            "H05..|A11..,H05..,0.2,0.1,0.5,1.5,2.0\n"
        )
        code, _, err = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(rules),
            "--spec", str(worked_example_dir / "signal.json"),
            "--out", str(tmp_path / "report"),
        )
        assert code == 2
        assert f"{rules}:2:" in err
        assert not (tmp_path / "report").exists()

    def test_unknown_patient_in_instances_exits_one(self, capsys, worked_example_dir, tmp_path):
        instances = tmp_path / "instances.csv"
        instances.write_text("patient_id,doi_date,hoi_date\nnope,2005-01-01,2005-01-09\n")
        code, _, err = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(worked_example_dir / "rules.csv"),
            "--spec", str(worked_example_dir / "signal.json"),
            "--instances", str(instances),
            "--out", str(tmp_path / "report"),
        )
        assert code == 1
        assert "error: unknown patient: nope" in err

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_non_finite_measure_exits_two(self, capsys, worked_example_dir, tmp_path, suffix):
        # Read back, a NaN lift flagged nothing and report.json held NaN,
        # which is not JSON.
        rules = tmp_path / f"rules.{suffix}"
        if suffix == "csv":
            text = (worked_example_dir / "rules.csv").read_text().splitlines(keepends=True)
            fields = text[2].split(",")
            fields[5] = "nan"
            text[2] = ",".join(fields)
            rules.write_text("".join(text))
            where = f"{rules}:3: "
        else:
            from adrrefine.mining import read_rules_csv, write_rules_json

            write_rules_json(read_rules_csv(str(worked_example_dir / "rules.csv")), str(rules))
            payload = json.loads(rules.read_text())
            payload[1]["lift"] = float("nan")
            rules.write_text(json.dumps(payload))
            where = f"{rules}: bad rule object: "
        code, _, err = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(rules),
            "--spec", str(worked_example_dir / "signal.json"),
            "--out", str(tmp_path / "report"),
        )
        assert code == 2
        assert f"error: {where}lift must be finite, not nan" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("top", ["5", "null", "{}"])
    def test_rules_json_not_a_list_exits_two(self, capsys, worked_example_dir, tmp_path, top):
        rules = tmp_path / "bad.json"
        rules.write_text(top)
        code, _, err = run_cli(
            capsys,
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", str(rules),
            "--spec", str(worked_example_dir / "signal.json"),
            "--out", str(tmp_path / "report"),
        )
        assert code == 2
        assert f"error: {rules}: top level must be a list" in err
        assert not (tmp_path / "report").exists()


class TestRejectedRequests:
    """Requests without a defined answer exit 1 on both mining and refinement."""

    @staticmethod
    def argv(command, worked_example_dir, tmp_path, spec):
        argv = [
            command,
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--spec", str(spec),
        ]
        if command == "mine":
            return argv + ["--out", str(tmp_path / "rules.csv"), "--min-active-months", "0"]
        return argv + ["--rules", str(worked_example_dir / "rules.csv"), "--out", str(tmp_path / "report")]

    @pytest.mark.parametrize("command", ["mine", "refine"])
    def test_outcome_query_above_level_three(self, capsys, worked_example_dir, tmp_path, command):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"doi_items": ["1.1.0.0"], "hoi_code": "H0..."}))
        code, _, err = run_cli(capsys, *self.argv(command, worked_example_dir, tmp_path, spec))
        assert code == 1
        assert "level" in err
        assert not (tmp_path / "rules.csv").exists()
        assert not (tmp_path / "report").exists()

    def test_mining_options_checked_before_load(self, capsys, worked_example_dir, tmp_path):
        code, _, err = run_cli(
            capsys,
            "mine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "rules.csv"),
            "--min-confidence", "2",
        )
        assert code == 1
        assert "min_confidence" in err
        assert not (tmp_path / "rules.csv").exists()


class TestSynth:
    def test_seed_reproducibility(self, capsys, tmp_path):
        spec = scenario_file(tmp_path)
        code_a, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "a"))
        code_b, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "b"))
        assert code_a == code_b == 0
        assert (tmp_path / "a" / "events.csv").read_bytes() == (
            tmp_path / "b" / "events.csv"
        ).read_bytes()

    def test_zero_patients_is_config_error(self, capsys, tmp_path):
        spec = scenario_file(tmp_path, patient_count=0)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("code_type, code", [("ICD", "C10.."), ("READ", "C1")])
    def test_bad_catalog_code_is_parse_error(self, capsys, tmp_path, code_type, code):
        catalog = [{"code_type": code_type, "code": code, "daily_rate": 0.0004}]
        spec = scenario_file(tmp_path, catalog=catalog)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error:" in err
        assert f"error: {spec}: " in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("days", [4_000_000, 10**30])
    def test_span_past_date_max_is_config_error(self, capsys, tmp_path, days):
        catalog = [{"code_type": "READ", "code": "C10..", "daily_rate": 5e-5}]
        spec = scenario_file(tmp_path, observation_days=days, catalog=catalog)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "x"))
        assert code == 1
        assert f"error: observation_days {days} from 2000-01-01 runs past 9999-12-31" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spec_seed, argv", [(-1, []), (42, ["--seed", "-1"])])
    def test_negative_seed_is_config_error(self, capsys, tmp_path, spec_seed, argv):
        spec = scenario_file(tmp_path, seed=spec_seed)
        out = str(tmp_path / "x")
        code, _, err = run_cli(capsys, "synth", "--spec", spec, *argv, "--out", out)
        assert code == 1
        assert "error: seed must be >= 0: -1" in err
        assert not (tmp_path / "x").exists()

    def test_generated_cohort_passes_ingest(self, capsys, tmp_path):
        spec = scenario_file(tmp_path)
        code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "c"))
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "ingest",
            "--patients", str(tmp_path / "c" / "patients.csv"),
            "--events", str(tmp_path / "c" / "events.csv"),
        )
        assert code == 0
        assert json.loads(out)["patients"] == 120

    def test_seed_override_changes_output(self, capsys, tmp_path):
        spec = scenario_file(tmp_path)
        run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "a"))
        run_cli(capsys, "synth", "--spec", spec, "--seed", "7", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "events.csv").read_bytes() != (
            tmp_path / "b" / "events.csv"
        ).read_bytes()

    def test_signal_counts_match_direct_scan(self, capsys, tmp_path):
        from adrrefine.events import apply_prescription_exclusions, load as load_store

        scenario = scenario_file(tmp_path, patient_count=400)
        run_cli(capsys, "synth", "--spec", scenario, "--out", str(tmp_path / "c"))
        signal_spec = tmp_path / "sig.json"
        signal_spec.write_text(
            json.dumps({"doi_items": ["5.1.0.0"], "hoi_code": "N771.", "window": [1, 60]})
        )
        out_file = tmp_path / "instances.csv"
        code, out, _ = run_cli(
            capsys,
            "signal",
            "--patients", str(tmp_path / "c" / "patients.csv"),
            "--events", str(tmp_path / "c" / "events.csv"),
            "--spec", str(signal_spec),
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out)

        # direct scan over the excluded store: first drug date, then any
        # outcome record 1..60 days later
        store = apply_prescription_exclusions(
            load_store(
                str(tmp_path / "c" / "patients.csv"), str(tmp_path / "c" / "events.csv")
            )
        )
        expected = 0
        for pid in store.patients:
            events = store.patient_events(pid)
            doi_dates = [
                e.date for e in events if e.code_type == "BNF" and e.code.startswith("5.1")
            ]
            if not doi_dates:
                continue
            first = min(doi_dates)
            hits = [
                e.date
                for e in events
                if e.code_type == "READ"
                and e.code == "N771."
                and 1 <= (e.date - first).days <= 60
            ]
            if hits:
                expected += 1
        assert payload["instance_count"] == expected


class TestInputEncoding:
    """Every input is read as UTF-8; other bytes exit 2 naming the file."""

    @staticmethod
    def corrupt(src: Path, dst: Path, old: bytes) -> str:
        data = src.read_bytes()
        assert old in data
        dst.write_bytes(data.replace(old, old[:-1] + b"\xe9", 1))
        return str(dst)

    def check(self, capsys, bad: str, *argv) -> None:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {bad}: not UTF-8 text" in err

    def worked(self, worked_example_dir, name: str) -> str:
        return str(worked_example_dir / name)

    def test_patients_csv(self, capsys, worked_example_dir, tmp_path):
        bad = self.corrupt(worked_example_dir / "patients.csv", tmp_path / "patients.csv", b"M,")
        self.check(capsys, bad, "ingest", "--patients", bad,
                   "--events", self.worked(worked_example_dir, "events.csv"))

    def test_events_csv(self, capsys, worked_example_dir, tmp_path):
        bad = self.corrupt(worked_example_dir / "events.csv", tmp_path / "events.csv", b"H05")
        self.check(capsys, bad, "ingest",
                   "--patients", self.worked(worked_example_dir, "patients.csv"), "--events", bad)

    @pytest.mark.parametrize("name", ["rules.csv", "rules.json", "signal.json", "instances.csv"])
    def test_refine_inputs(self, capsys, worked_example_dir, tmp_path, name):
        files = {n: self.worked(worked_example_dir, n) for n in ("signal.json", "instances.csv")}
        rules = worked_example_dir / "rules.csv"
        if name == "rules.json":
            from adrrefine.mining import read_rules_csv, write_rules_json

            rules = tmp_path / "good-rules.json"
            write_rules_json(read_rules_csv(str(worked_example_dir / "rules.csv")), str(rules))
        files["rules"] = str(rules)
        source = rules if name.startswith("rules") else worked_example_dir / name
        bad = self.corrupt(source, tmp_path / name, b"H05" if name != "instances.csv" else b"-0")
        files["rules" if name.startswith("rules") else name] = bad
        self.check(
            capsys, bad, "refine",
            "--patients", self.worked(worked_example_dir, "patients.csv"),
            "--events", self.worked(worked_example_dir, "events.csv"),
            "--rules", files["rules"], "--spec", files["signal.json"],
            "--instances", files["instances.csv"], "--out", str(tmp_path / "report"),
        )

    def test_signal_spec(self, capsys, worked_example_dir, tmp_path):
        bad = self.corrupt(worked_example_dir / "signal.json", tmp_path / "signal.json", b"H05")
        self.check(capsys, bad, "signal",
                   "--patients", self.worked(worked_example_dir, "patients.csv"),
                   "--events", self.worked(worked_example_dir, "events.csv"),
                   "--spec", bad, "--out", str(tmp_path / "instances.csv"))

    def test_scenario_json(self, capsys, tmp_path):
        good = Path(scenario_file(tmp_path))
        bad = self.corrupt(good, tmp_path / "bad-scenario.json", b"K55")
        self.check(capsys, bad, "synth", "--spec", bad, "--out", str(tmp_path / "c"))


class TestOversizedField:
    """A record the csv module cannot read exits 2 naming the file and line."""

    @pytest.mark.parametrize("name", ["patients.csv", "events.csv", "rules.csv", "instances.csv"])
    def test_refine_inputs(self, capsys, worked_example_dir, tmp_path, name):
        files = {
            n: str(worked_example_dir / n)
            for n in ("patients.csv", "events.csv", "rules.csv", "instances.csv")
        }
        lines = (worked_example_dir / name).read_text().splitlines(keepends=True)
        lines.insert(2, "x" * 200_000 + "\n")
        bad = tmp_path / name
        bad.write_text("".join(lines))
        files[name] = str(bad)
        code, _, err = run_cli(
            capsys, "refine",
            "--patients", files["patients.csv"], "--events", files["events.csv"],
            "--rules", files["rules.csv"], "--spec", str(worked_example_dir / "signal.json"),
            "--instances", files["instances.csv"], "--out", str(tmp_path / "report"),
        )
        assert code == 2
        assert f"error: {bad}:3: field larger than field limit (131072)" in err
        assert not (tmp_path / "report").exists()


class TestWrongValueTypes:
    """JSON values of the wrong type exit 2 (or 1 for a bad setting), never
    as a traceback."""

    def refine_argv(self, worked_example_dir, tmp_path, **files):
        paths = {n: str(worked_example_dir / n) for n in ("rules.csv", "signal.json")}
        paths.update(files)
        return [
            "refine",
            "--patients", str(worked_example_dir / "patients.csv"),
            "--events", str(worked_example_dir / "events.csv"),
            "--rules", paths["rules.csv"], "--spec", paths["signal.json"],
            "--out", str(tmp_path / "report"),
        ]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"doi_items": [5], "hoi_code": "H05.."}, "bnf code must be a string: 5"),
            ({"doi_items": ["1.1.0.0"], "hoi_code": 5}, "read code must be a string: 5"),
            (
                {"doi_items": ["1.1.0.0"], "hoi_code": "H05..", "window": [True, 60]},
                "window must be two integer days: (True, 60)",
            ),
            # A string or object where a list belongs was read as its
            # characters or keys.
            ({"doi_items": "1.1.0.0", "hoi_code": "H05.."}, "doi_items must be a list, not a string"),
            (
                {"doi_items": {"1.1.0.0": 1}, "hoi_code": "H05.."},
                "doi_items must be a list, not an object",
            ),
            (
                {"doi_items": ["1.1.0.0"], "hoi_code": "H05..", "window": {"1": 0, "60": 0}},
                "window must be a list, not an object",
            ),
            (
                {"doi_items": ["1.1.0.0"], "hoi_code": "H05..", "window": "16"},
                "window must be a list, not a string",
            ),
        ],
    )
    def test_signal_spec(self, capsys, worked_example_dir, tmp_path, payload, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        argv = self.refine_argv(worked_example_dir, tmp_path, **{"signal.json": str(spec)})
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {spec}: " in err
        assert message in err

    def test_rules_json_antecedent(self, capsys, worked_example_dir, tmp_path):
        rule = {"antecedent": [5], "consequent": "H05..", "left_support": 0.1, "support": 0.05,
                "confidence": 0.5, "lift": 1.5, "chi_squared": 2.0}
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([rule]))
        argv = self.refine_argv(worked_example_dir, tmp_path, **{"rules.csv": str(rules)})
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {rules}: bad rule object: item must be a string: 5" in err

    @pytest.mark.parametrize(
        "antecedent, got", [("2.2.0.0", "a string"), ({"2.2.0.0": 1}, "an object")]
    )
    def test_rules_json_antecedent_not_a_list(
        self, capsys, worked_example_dir, tmp_path, antecedent, got
    ):
        rule = {"antecedent": antecedent, "consequent": "H05..", "left_support": 0.1,
                "support": 0.05, "confidence": 0.5, "lift": 1.5, "chi_squared": 2.0}
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([rule]))
        argv = self.refine_argv(worked_example_dir, tmp_path, **{"rules.csv": str(rules)})
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {rules}: bad rule object: antecedent must be a list, not {got}" in err

    def test_rules_json_measure(self, capsys, worked_example_dir, tmp_path):
        rule = {"antecedent": ["2.2.0.0"], "consequent": "H05..", "left_support": 0.1,
                "support": 0.05, "confidence": 0.5, "lift": "1.5", "chi_squared": 2.0}
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([rule]))
        argv = self.refine_argv(worked_example_dir, tmp_path, **{"rules.csv": str(rules)})
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f'error: {rules}: bad rule object: lift must be a number, not "1.5"' in err

    def test_signal_spec_name(self, capsys, worked_example_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"doi_items": ["1.1.0.0"], "hoi_code": "H05..", "name": 5}))
        argv = self.refine_argv(worked_example_dir, tmp_path, **{"signal.json": str(spec)})
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {spec}: name must be a string: 5" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": 1.9}, "seed must be an integer, not 1.9"),
            ({"patient_count": True}, "patient_count must be an integer, not true"),
            ({"observation_days": "1460"}, 'observation_days must be an integer, not "1460"'),
            (
                {"catalog": [{"code_type": "READ", "code": "C10..", "daily_rate": "0.001"}]},
                'daily_rate must be a number, not "0.001"',
            ),
            (
                {"adr": {"doi_items": ["5.1.0.0"], "outcome_code": "N772.",
                         "reaction_probability": False}},
                "reaction_probability must be a number, not false",
            ),
            (
                {"catalog": [{"code_type": "READ", "code": "C10..", "daily_rate": 10**400}]},
                "daily_rate must fit a float, not an integer of 401 digits",
            ),
            (
                {"adr": {"doi_items": ["5.1.0.0"], "outcome_code": "N772.",
                         "reaction_probability": 10**400}},
                "reaction_probability must fit a float, not an integer of 401 digits",
            ),
        ],
    )
    def test_scenario_number_types(self, capsys, tmp_path, overrides, message):
        spec = scenario_file(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "c"))
        assert code == 2
        assert f"error: {spec}: bad scenario config: {message}" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # A string or object where a list belongs was read as its
            # characters or keys.
            (
                {"catalog": {"code_type": "READ", "code": "C10..", "daily_rate": 0.001}},
                "catalog must be a list, not an object",
            ),
            (
                {"confounder": {"antecedent": "K55..", "outcome_code": "N771.",
                                "doi_code": "5.1.0.0", "prevalence": 0.2,
                                "recording_probability": 0.7, "activation_probability": 0.5,
                                "doi_coprescription_probability": 0.6}},
                "confounder.antecedent must be a list, not a string",
            ),
            (
                {"adr": {"doi_items": "5.1.0.0", "outcome_code": "N772.",
                         "reaction_probability": 0.01}},
                "adr.doi_items must be a list, not a string",
            ),
            (
                {"adr": {"doi_items": ["5.1.0.0"], "outcome_code": "N772.",
                         "reaction_probability": 0.01, "latency_days": "19"}},
                "adr.latency_days must be a list, not a string",
            ),
            (
                {"adr": {"doi_items": ["5.1.0.0"], "outcome_code": "N772.",
                         "reaction_probability": 0.01, "latency_days": {"1": 9}}},
                "adr.latency_days must be a list, not an object",
            ),
        ],
    )
    def test_scenario_lists(self, capsys, tmp_path, overrides, message):
        spec = scenario_file(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "c"))
        assert code == 2
        assert f"error: {spec}: bad scenario config: {message}" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "pair", [["READ", "H33..", "ignored"], ["BNF", "3.4.0.0", 7, 8], ["READ"], []]
    )
    def test_scenario_antecedent_pair_length(self, capsys, tmp_path, pair):
        confounder = json.loads(Path(scenario_file(tmp_path)).read_text())["confounder"]
        spec = scenario_file(tmp_path, confounder={**confounder, "antecedent": [pair]})
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "c"))
        assert code == 2
        message = "confounder.antecedent entries must be [code_type, code] pairs"
        assert f"error: {spec}: bad scenario config: {message}, not {json.dumps(pair)}" in err
        assert not (tmp_path / "c").exists()

    def test_scenario_catalog_code(self, capsys, tmp_path):
        catalog = [{"code_type": "READ", "code": 5, "daily_rate": 0.001}]
        spec = scenario_file(tmp_path, catalog=catalog)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "c"))
        assert code == 2
        assert "read code must be a string: 5" in err

    @pytest.mark.parametrize("latency", [[1], [1, 30, 60], [1.5, 30], [1, 1460], [1, 10**30]])
    def test_scenario_latency_days(self, capsys, tmp_path, latency):
        adr = {"doi_items": ["5.1.0.0"], "outcome_code": "N772.", "reaction_probability": 0.01,
               "latency_days": latency}
        spec = scenario_file(tmp_path, adr=adr)
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--out", str(tmp_path / "c"))
        assert code == 1
        assert "error: latency_days must be two integer days" in err

    def test_nan_lift_threshold(self, capsys, worked_example_dir, tmp_path):
        argv = self.refine_argv(worked_example_dir, tmp_path) + ["--lift-threshold", "nan"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error: lift_threshold must be a number, not NaN" in err
        assert not (tmp_path / "report").exists()


class TestHelp:
    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert str(DEFAULTS.min_left_support) in out
        assert str(DEFAULTS.min_confidence) in out
        assert str(DEFAULTS.max_antecedent) in out

    def test_refine_help_documents_lift_threshold(self, capsys):
        with pytest.raises(SystemExit):
            main(["refine", "--help"])
        out = capsys.readouterr().out
        assert str(DEFAULTS.lift_threshold) in out
        assert str(DEFAULTS.exclusion_months) in out

    @pytest.mark.parametrize("command", ["mine", "refine"])
    def test_workers_flag_unrecognised(self, capsys, worked_example_dir, tmp_path, command):
        spec = worked_example_dir / "signal.json"
        argv = TestRejectedRequests.argv(command, worked_example_dir, tmp_path, spec)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err

    def test_readme_flags_are_accepted(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        accepted = {flag for p in subparsers.choices.values() for flag in p._option_string_actions}
        assert named
        assert named <= accepted, sorted(named - accepted)


class TestLibraryMatchesCli:
    """The in-memory library path and the CLI's file path give equal reports."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        patient_count=st.integers(200, 400),
        recording=st.sampled_from([0.0, 0.5, 0.9]),
        query=st.sampled_from(["N771.", "N771z"]),
        window=st.sampled_from([(1, 60), (1, 20), (10, 90)]),
    )
    def test_reports_equal(self, seed, patient_count, recording, query, window):
        from adrrefine.baskets import build_database
        from adrrefine.events import apply_prescription_exclusions
        from adrrefine.mining import mine_rules
        from adrrefine.refine import refine, report_to_dict
        from adrrefine.signals import load_signal_spec
        from adrrefine.synth import generate_store, load_scenario

        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            confounder = {
                "antecedent": [["READ", "K55.."], ["BNF", "9.9.0.0"]],
                "outcome_code": "N771z",
                "doi_code": "5.1.2.0",
                "prevalence": 0.2,
                "recording_probability": recording,
                "activation_probability": 0.5,
                "doi_coprescription_probability": 0.6,
            }
            catalog = [
                {"code_type": "BNF", "code": "5.1.0.0", "daily_rate": 0.0005},
                {"code_type": "READ", "code": "C10..", "daily_rate": 0.0004},
                {"code_type": "READ", "code": "N771.", "daily_rate": 0.0001},
            ]
            scenario = scenario_file(
                tmp_path, seed=seed, patient_count=patient_count, catalog=catalog,
                confounder=confounder,
            )
            spec_path = tmp_path / "signal.json"
            spec_path.write_text(
                json.dumps({"doi_items": ["5.1.0.0"], "hoi_code": query, "window": list(window)})
            )

            spec = load_signal_spec(str(spec_path))
            store, _ = generate_store(load_scenario(scenario))
            rules = mine_rules(build_database(store), rule_consequent(spec.hoi), workers=1)
            report = report_to_dict(refine(spec, rules, apply_prescription_exclusions(store)))

            cohort = ["--patients", str(tmp_path / "c" / "patients.csv"),
                      "--events", str(tmp_path / "c" / "events.csv")]
            rules_path = str(tmp_path / "rules.json")
            assert main(["synth", "--spec", scenario, "--out", str(tmp_path / "c")]) == 0
            assert main(["mine", *cohort, "--spec", str(spec_path), "--out", rules_path]) == 0
            assert main(["refine", *cohort, "--rules", rules_path, "--spec", str(spec_path),
                         "--out", str(tmp_path / "report")]) == 0
            assert json.loads((tmp_path / "report" / "report.json").read_text()) == report
