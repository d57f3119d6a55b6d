"""Each demo script runs to completion as a fresh process, and the demo
scenario generates a cohort that loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from adrrefine.events import load
from adrrefine.synth import generate, load_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # The demos import the package from src/ and write scratch files to the
    # temporary directory, which points into tmp_path here. They run in
    # development mode with ResourceWarning as an error, as the tests
    # themselves do. A warning raised where it cannot propagate, as a file
    # closed by the garbage collector, is printed as "Exception ignored"
    # and leaves the exit code 0, so the output is checked for it too.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "Exception ignored" not in result.stderr, result.stderr


def test_demo_scenario_generates_a_loadable_cohort(tmp_path):
    config = load_scenario(str(ROOT / "demos" / "scenario.json"))
    assert config.patient_count == 2000 and config.confounder is not None
    summary = generate(config, str(tmp_path))
    store = load(str(tmp_path / "patients.csv"), str(tmp_path / "events.csv"))
    assert (store.patient_count, store.event_count) == (summary["patients"], summary["events"])
