"""The experiment scripts run end to end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, summary", [
    ("quality_experiment.py", ["--instances", "3", "--max-n", "6"],
     "3 instances in"),
    ("replay_experiment.py", ["--triples", "2", "--max-n", "6"],
     "2 triples in"),
])
def test_script_runs(script, args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert summary in proc.stdout
