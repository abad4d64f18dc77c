"""Every benchmark workload runs clean at smoke size: a kernel change that
breaks a benchmark operation fails here, not only in a timed run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def smoke_run(workload, trace):
    """Run one smoke-size round, check it is clean, and return its final
    JSON result."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace),
                           "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    digest = [json.loads(line.split(" ", 2)[2]) for line in lines
              if line.startswith("# digest ")]
    assert len(digest) == 1 and digest[0]["fail_rate"] == 0, proc.stdout
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["small-exact", "rings", "query"])
def test_smoke_run_is_correct(workload):
    smoke_run(workload, 0)


def test_traced_smoke_run_is_correct():
    """The tracer rebinds every layer it names and fails on a renamed or
    deleted one, so a traced run catches what an untraced one cannot."""
    calls = {k: v["value"] for k, v in smoke_run("rings", 1)["metrics"].items()
             if k.endswith(".calls")}
    # no refinement splits here, so only the merge separator flows are
    # decomposed into paths
    assert calls["merge.merge_phase.calls"] > 0
    assert calls["flow.path_decomposition.calls"] \
        == calls["merge.merge_phase.calls"]
