#!/usr/bin/env python3
"""Measure tree cut quality over a random corpus, basic vs improved mode.

Builds both trees for each instance, verifies exhaustively, and prints the
per-instance quality plus medians, against the declared envelope.
"""

import argparse
import random
import statistics
import sys
import time

from treecut.graph import Graph
from treecut.tree import build_basic, build_improved
from treecut.verify import quality_envelope, verify_quality


def random_graph(rng, n, p, max_cap):
    edges = [(i, j, rng.randint(1, max_cap)) for i in range(n)
             for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--max-cap", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    rows = []
    t0 = time.time()
    for i in range(args.instances):
        n = rng.randint(args.min_n, args.max_n)
        p = rng.choice((0.25, 0.45, 0.65, 0.85))
        g = random_graph(rng, n, p, args.max_cap)
        qb = verify_quality(g, build_basic(g)).worst
        qi = verify_quality(g, build_improved(g)).worst
        env = quality_envelope(n)
        ok = qb <= env and qi <= env
        rows.append((n, g.edge_count, qb, qi, ok))
        print("%3d: n=%2d m=%2d basic=%-10s improved=%-10s within=%s"
              % (i, n, g.edge_count, qb, qi, ok))
        if not ok:
            print("ENVELOPE VIOLATION", file=sys.stderr)
            return 1
    med_b = statistics.median(float(r[2]) for r in rows)
    med_i = statistics.median(float(r[3]) for r in rows)
    print("\n%d instances in %.1fs" % (len(rows), time.time() - t0))
    print("median quality: basic %.3f, improved %.3f" % (med_b, med_i))
    print("max quality: basic %.3f, improved %.3f"
          % (max(float(r[2]) for r in rows),
             max(float(r[3]) for r in rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
