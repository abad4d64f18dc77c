#!/usr/bin/env python3
"""treecut benchmark: build, verify and replay on one workload.

    python3 perfbench/run.py --workload small-exact --seed 1 --seconds 35 \\
        --trace 0

Runs from the root of a source checkout and imports the library from its
``src/`` directory, in one process and one thread.  After imports and a
warm-up pass over every code path, it repeats the workload's fixed list of
operations in rounds for about ``--seconds`` seconds, and the workload's
set-up (input generation and, for ``query``, the tree builds) before each
of the first five rounds, and after the last round until it has run five
times.  Each operation's time is taken at reference
speed (see speed.py), and a phase's time is the sum over its operations of
their median across rounds.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced, and it holds the per-layer metrics of the traced rounds.  Lines
before it give the environment, one record per built tree, the sha256 of
every tree and report the run produced, the probe's kernel time with the
phases' plain wall seconds and, when tracing, where each phase's time went.
``--smoke`` shrinks every workload to a few tiny instances.
"""

import os

# One thread: numpy's BLAS would otherwise start workers on other cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
PHASE_METRIC = {"build": "build_s", "verify": "verify_s", "replay": "replay_s"}


def load_library():
    """Import treecut from this checkout's sources, and from nowhere else."""
    pkg = SRC / "treecut"
    if not (pkg / "__init__.py").is_file():
        sys.exit("perfbench: no treecut sources at %s" % pkg)
    sys.path.insert(0, str(SRC))
    import treecut
    if Path(treecut.__file__).resolve().parent != pkg.resolve():
        sys.exit("perfbench: imported treecut from %s, not %s"
                 % (treecut.__file__, pkg))


def environment():
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0))}
    import numpy
    env["numpy"] = numpy.__version__
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        # without scipy the sweep backend silently drops its spectral orders
        env["scipy"] = "scipy absent"
    return env


def phase_seconds(repeats, probe=None):
    """Seconds per phase: the sum over operations of each operation's median
    time across repeats of the same operation list, at reference speed when
    a speed probe is given and in wall seconds otherwise."""
    out = dict.fromkeys(PHASE_METRIC, 0.0)
    for column in zip(*(ops.times for ops in repeats)):
        out[column[0][0]] += statistics.median(
            secs * (probe.scale(start, end) if probe else 1.0)
            for _, secs, start, end in column)
    return out


def info(kind, payload):
    print("# %s %s" % (kind, json.dumps(payload, sort_keys=True)))


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args()


def main():
    load_library()
    from speed import SpeedProbe
    from tracer import OUTCOMES, Tracer, span_names
    from workloads import WORKLOADS, Ops, Records, warm_up

    args = parse_args(sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]
    info("env", environment())

    # -- set-up once per process, then the measured phase: rounds of the
    # workload's operations.  The workload's own set-up is repeated before
    # each of the first rounds, so its repeats, like the rounds, sample the
    # machine across the whole run; the first repeat and round are recorded.
    probe = SpeedProbe()
    with probe:
        warm = Ops(probe)
        warm_up(warm)
        once_s = time.perf_counter() - T_START
        tracer = Tracer() if args.trace else None
        records = Records()
        setups, prep_s, plain, traced, snapshots = [], [], [], [], []
        began = time.perf_counter()
        while True:
            if len(setups) < SETUP_REPEATS:
                ops = Ops(probe, records=records if not setups else None)
                t0 = time.perf_counter()
                state = wl.setup(args.seed, args.smoke, ops)
                prep_s.append(time.perf_counter() - t0)
                setups.append(ops)
            t0 = time.perf_counter()
            ops = Ops(probe, records=records if not plain else None)
            wl.run(state, ops)
            plain.append(ops)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    ops = Ops(probe, tracer=tracer)
                    wl.run(state, ops)
                finally:
                    tracer.uninstall()
                traced.append(ops)
                snapshots.append(tracer.snapshot())
            last = time.perf_counter() - t0
            if time.perf_counter() - began + last > args.seconds:
                break
        while len(setups) < SETUP_REPEATS:
            ops = Ops(probe)
            t0 = time.perf_counter()
            wl.setup(args.seed, args.smoke, ops)
            prep_s.append(time.perf_counter() - t0)
            setups.append(ops)

    # -- checks
    every = [warm] + setups + plain + traced
    attempted = sum(o.attempted for o in every)
    failed = sum(o.failed for o in every)
    problems = [e for o in every for e in o.errors]
    for group, what in ((setups, "set-up"), (plain + traced, "round")):
        if len({o.digest.hexdigest() for o in group}) > 1:
            problems.append("outputs differ between %s repeats" % what)
        if len({tuple(t[0] for t in o.times) for o in group}) > 1:
            problems.append("operations differ between %s repeats" % what)
    for ops, snap in zip(traced, snapshots):
        if snap["self_total"] > ops.wall() + 1e-6:
            problems.append("traced self times %.6f s exceed the traced "
                            "wall time %.6f s" % (snap["self_total"],
                                                  ops.wall()))
        if not wl.timed_builds and snap["build_calls"]:
            problems.append("%d build-layer calls in a build-free timed "
                            "phase" % snap["build_calls"])
    for p in problems:
        print("perfbench: %s" % p, file=sys.stderr)

    for row in records.rows:
        info("record", row)
    digest = hashlib.sha256((setups[0].digest.hexdigest()
                             + plain[0].digest.hexdigest()).encode())
    info("digest", {"workload": wl.name, "seed": args.seed,
                    "sha256": digest.hexdigest(),
                    "fail_rate": failed / attempted})
    prep, timed = phase_seconds(setups), phase_seconds(plain)
    info("speed", {"kernel_median_s": statistics.median(probe.took),
                   "samples": len(probe.took),
                   "wall_s": {m: prep[p] + timed[p]
                              for p, m in PHASE_METRIC.items()}})

    med = statistics.median
    if tracer is None:
        alphas = sorted(plain[0].alphas)
        prep = phase_seconds(setups, probe)
        timed = phase_seconds(plain, probe)
        seconds = {p: prep[p] + timed[p] for p in PHASE_METRIC}
        metrics = {
            "build_s": (seconds["build"], "s"),
            "verify_s": (seconds["verify"], "s"),
            "replay_s": (seconds["replay"], "s"),
            "setup_s": (once_s + med(prep_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "alpha_geomean": (math.exp(statistics.fmean(
                map(math.log, alphas))) if alphas else 0.0, "ratio"),
            "alpha_max": (float(alphas[-1]) if alphas else 0.0, "ratio"),
            "success_rate": (1 - failed / attempted, "share"),
        }
    else:
        metrics = {}
        for name in span_names():
            rows = [snap["layers"][name] for snap in snapshots]
            metrics[name + ".calls"] = (med([r[0] for r in rows]), "count")
            metrics[name + ".self_s"] = (med([r[1] for r in rows]), "s")
        for name, (stat, _) in OUTCOMES.items():
            rows = [snap["layers"][name] for snap in snapshots]
            metrics["%s.%s" % (name, stat)] = (
                med([r[2] / r[0] if r[0] else 0.0 for r in rows]), "share")
        metrics["trace.overhead_s"] = (
            sum(phase_seconds(traced, probe).values())
            - sum(phase_seconds(plain, probe).values()), "s")
        for phase, metric in PHASE_METRIC.items():
            top = snapshots[0]["top"][phase]
            if top is not None:
                info("attribution", {"metric": metric, "top_layer": top[0],
                                     "share": round(top[1], 4)})
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("spans-%s-seed%d.tsv" % (wl.name, args.seed))
        tracer.write_spans(spans)
        info("spans", {"file": str(spans.relative_to(ROOT)),
                       "count": len(tracer.span_id)})

    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
