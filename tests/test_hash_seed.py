"""Output files do not depend on Python's string hash seed.

Set and dict iteration order over strings changes with `PYTHONHASHSEED`;
none of it may reach a file. The whole file pipeline (synth, mine to
rules.csv and rules.json, signal, refine from each rules file) runs in
two fresh processes under different hash seeds, and every file each run
writes, stdout included, must be byte-identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Rates dense enough that patients have same-day rows of different
# codes, whose order in events.csv a leak of set order would change.
SCENARIO = {
    "seed": 4242,
    "patient_count": 300,
    "observation_days": 1460,
    "catalog": [
        {"code_type": "BNF", "code": "5.1.0.0", "daily_rate": 0.005},
        {"code_type": "BNF", "code": "2.5.0.0", "daily_rate": 0.003},
        {"code_type": "READ", "code": "C10..", "daily_rate": 0.004},
        {"code_type": "READ", "code": "H33..", "daily_rate": 0.003},
    ],
    "confounder": {
        "antecedent": [["READ", "K55.."], ["BNF", "9.9.0.0"]],
        "outcome_code": "N771.",
        "doi_code": "5.1.0.0",
        "prevalence": 0.2,
        "recording_probability": 0.7,
        "activation_probability": 0.5,
        "doi_coprescription_probability": 0.6,
    },
    "adr": {"doi_items": ["5.1.0.0"], "outcome_code": "N772.", "reaction_probability": 0.1},
}

# Two drug codes, which the spec holds as a set.
SIGNAL = {
    "name": "N771", "doi_items": ["5.1.0.0", "2.5.0.0"], "hoi_code": "N771.", "window": [1, 60]
}

# Runs every stage through the CLI in one process, each stage's stdout
# to its own file under the output directory given as the argument.
PIPELINE = """
import contextlib, sys
from adrrefine.cli import main

out = sys.argv[1]
cohort = ["--patients", f"{out}/cohort/patients.csv", "--events", f"{out}/cohort/events.csv"]
spec = ["--spec", f"{out}/../signal.json"]
steps = {
    "synth": ["synth", "--spec", f"{out}/../scenario.json", "--out", f"{out}/cohort"],
    "ingest": ["ingest", *cohort],
    "mine_csv": ["mine", *cohort, "--out", f"{out}/rules.csv"],
    "mine_json": ["mine", *cohort, "--out", f"{out}/rules.json"],
    "signal": ["signal", *cohort, *spec, "--out", f"{out}/instances.csv"],
    "refine_csv": ["refine", *cohort, *spec, "--rules", f"{out}/rules.csv",
                   "--out", f"{out}/report_csv"],
    "refine_json": ["refine", *cohort, *spec, "--rules", f"{out}/rules.json",
                    "--instances", f"{out}/instances.csv", "--out", f"{out}/report_json"],
}
for name, argv in steps.items():
    with open(f"{out}/{name}.stdout", "w", encoding="utf-8") as fh:
        with contextlib.redirect_stdout(fh):
            assert main(argv) == 0, name
"""


def _run(tmp_path: Path, hash_seed: str) -> dict[str, bytes]:
    out = tmp_path / f"seed{hash_seed}"
    out.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(out)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "signal.json").write_text(json.dumps(SIGNAL))
    first, second = _run(tmp_path, "1"), _run(tmp_path, "2")
    assert list(first) == list(second)
    for name in first:
        # stdout names the run's own directory; compare it with that removed.
        a = first[name].replace(str(tmp_path / "seed1").encode(), b"OUT")
        b = second[name].replace(str(tmp_path / "seed2").encode(), b"OUT")
        assert a == b, name
    report = json.loads(first["report_csv/report.json"])
    # The comparison covers a report with instances, some of them expected.
    assert report["instance_count"] > 0 and report["expected_count"] > 0
    assert len(first) == 18  # 11 files and 7 stdouts
