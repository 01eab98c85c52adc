"""The experiment scripts reject bad option values as usage errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pliersim import cli

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("linkpred_experiment.py", ["--k", "0"], "--k must be >= 1"),
        ("linkpred_experiment.py", ["--items", "0"], "--items must be >= 1"),
        ("linkpred_experiment.py", ["--users", "0"], "--users must be >= 1"),
        ("linkpred_experiment.py", ["--tags", "0"], "--tags must be >= 1"),
        ("linkpred_experiment.py", ["--seeds", "0"], "--seeds must be >= 1"),
        ("linkpred_experiment.py", ["--users", "-3"], "--users must be >= 1"),
        ("convergence_experiment.py", ["--agents", "0"], "with 0 agents"),
        ("convergence_experiment.py", ["--agents", "30", "--hours", "0"], "nothing to replay"),
        ("convergence_experiment.py", ["--content-gap-s", "0"], "--content-gap-s must be > 0"),
        ("convergence_experiment.py", ["--cadence", "0"], "--cadence must be >= 1"),
        ("convergence_experiment.py", ["--cadence", "-5"], "--cadence must be >= 1"),
        ("scaled_replay.py", ["--cadence", "0"], "--cadence must be >= 1"),
        ("scaled_replay.py", ["--hours", "0"], "--hours must cover at least 1 s"),
        ("reference_replay.py", ["--cadence", "0"], "--cadence must be >= 1"),
        ("reference_replay.py", ["--communities", "151"], "--communities must not exceed --agents"),
    ],
    ids=[
        "linkpred_k_0",
        "linkpred_items_0",
        "linkpred_users_0",
        "linkpred_tags_0",
        "linkpred_seeds_0",
        "linkpred_users_negative",
        "convergence_agents_0",
        "convergence_hours_0",
        "convergence_gap_0",
        "convergence_cadence_0",
        "convergence_cadence_negative",
        "scaled_replay_cadence_0",
        "scaled_replay_hours_0",
        "reference_replay_cadence_0",
        "reference_replay_communities_over_agents",
    ],
)
def test_bad_value_is_a_usage_error(tmp_path, script, args, message):
    done = run_script(script, *args, cwd=tmp_path)
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
