#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload at tiny size, untraced and
traced, one after another.

    python3 perfbench/smoke.py

Checks that each run exits 0, reports ``correct`` with no failed operation
(fail_rate 0), prints its output digest, and prints exactly the metrics that
BENCHMARK.json names.  Exits 1 if any run falls short.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(cmd, want):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return "exit code %d: %s" % (proc.returncode, proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if not any(line.startswith("# digest ") for line in lines):
        return "no digest line"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys %s" % sorted(result)
    if not result["correct"] or result["failed"]:
        return "correct=%s, %d of %d operations failed" % (
            result["correct"], result["failed"], result["attempted"])
    got = set(result["metrics"])
    if got != want:
        return "missing %s, unexpected %s" % (sorted(want - got),
                                               sorted(got - want))
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            return "%s is not a number" % name
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--smoke"]
            problem = check(cmd, want[trace])
            print("%-12s trace=%d %s" % (workload["name"], trace,
                                         problem or "ok"))
            bad += problem is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
