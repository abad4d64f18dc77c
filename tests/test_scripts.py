"""The replay experiment script runs end to end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_replay_experiment_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "replay_experiment.py"),
                           "--triples", "2", "--max-n", "6"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 triples in" in proc.stdout
