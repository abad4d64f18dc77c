"""End-to-end quality measurement of a decomposition tree against its graph.

The tree's cut estimates must dominate every graph cut (lower bound,
unconditional) and stay within a declared multiplicative envelope of it
(quality).  Verification is exhaustive at small sizes and sampled above,
with singleton and tree-node cuts always forced into the sample.
"""

import json
import random
from fractions import Fraction

import numpy as np

from .config import DEFAULT, Config
from .graph import Graph
from .oracle import _log2n
from .tree import DecompositionTree, cut_sides, mincut_plan
from .util import frac_str, int_dtype, rloglog2


class VerifyError(ValueError):
    pass


# Exhaustive verification keeps a record of each of its 2^(n-1) - 1 cuts, so
# above this many vertices it cannot fit in memory.
EXHAUSTIVE_LIMIT = 20


def quality_envelope(n, cfg: Config = DEFAULT):
    """The declared quality bound quality_C * (log2 n)^2 * max(1, log2 log2 n)
    for an n-vertex graph."""
    return cfg.quality_C * _log2n(n) ** 2 * rloglog2(max(2, n))


class QualityReport:
    """Per-cut records (cut, cap, tree estimate, ratio), the worst ratio,
    and the list of lower-bound violations (must stay empty)."""

    def __init__(self, records, worst, mode, samples, seed, violations):
        self.records = records        # [(frozenset, cap, mincut, ratio|None)]
        self.worst = worst            # max ratio (the measured quality)
        self.mode = mode              # "exhaustive" | "sampled"
        self.samples = samples
        self.seed = seed
        self.violations = violations  # cuts with cap > tree estimate

    @property
    def ok(self):
        return not self.violations

    def within_envelope(self, n, cfg: Config = DEFAULT):
        return self.ok and self.worst <= quality_envelope(n, cfg)

    def to_json(self):
        doc = {"format_version": 1,
               "mode": self.mode,
               "worst_ratio": frac_str(self.worst),
               "cuts_checked": len(self.records),
               "violations": [sorted(c) for c in self.violations]}
        if self.mode == "sampled":
            doc["samples"] = self.samples
            doc["seed"] = self.seed
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def table_lines(self, limit=10):
        rows = sorted((r for r in self.records if r[3] is not None),
                      key=lambda r: r[3], reverse=True)[:limit]
        out = ["%-30s %10s %10s %10s" % ("cut", "cap", "tree", "ratio")]
        for cut, cap, mc, ratio in rows:
            names = ",".join(str(v) for v in sorted(cut)[:6])
            if len(cut) > 6:
                names += ",..."
            out.append("%-30s %10s %10s %10s"
                       % ("{%s}" % names, cap, mc, frac_str(ratio)))
        return out


def _check_pair(g: Graph, t: DecompositionTree):
    if t.graph.vertex_set() != g.vertex_set() or t.graph.cap != g.cap:
        raise VerifyError("tree was not built from this graph")


def _all_cuts(vertices):
    """Every proper nonempty cut once: the side avoiding the last vertex, in
    the order of its bit mask over the sorted vertices."""
    cuts = [frozenset()]
    for v in sorted(vertices)[:-1]:
        one = frozenset((v,))
        cuts += [c | one for c in cuts]
    return cuts[1:]


def _all_sides(n):
    """cut_sides matrix of _all_cuts over n sorted vertices, built by the
    same doubling."""
    side = np.zeros((1 << (n - 1), n), bool)
    for i in range(n - 1):
        side[1 << i:2 << i] = side[:1 << i]
        side[1 << i:2 << i, i] = True
    return side[1:]


def _capacities(g: Graph, side):
    """Graph cut capacity of every row of a cut_sides matrix, as ints."""
    column = {v: i for i, v in enumerate(g.vertices)}
    cap = np.zeros(len(side), int_dtype(sum(c for _, _, c in g.edges)))
    for u, v, c in g.edges:
        cap[side[:, column[u]] != side[:, column[v]]] += c
    return cap.tolist()


def verify_quality(g: Graph, t: DecompositionTree, mode=None,
                   cfg: Config = DEFAULT) -> QualityReport:
    """Measure the tree's cut quality.

    mode: None picks exhaustive for n <= 12, else sampled; or force
    "exhaustive" (up to EXHAUSTIVE_LIMIT vertices) / "sampled" explicitly.
    Every cut is evaluated at once: capacities and tree min-cuts as integer
    arrays (see mincut_plan), then one record per cut, cuts with equal
    values sharing one tuple of Fractions."""
    _check_pair(g, t)
    n = g.vertex_count
    if n < 2:
        raise VerifyError("need at least two vertices to have a cut")
    if mode is None:
        mode = "exhaustive" if n <= 12 else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise VerifyError("unknown verification mode %r" % mode)
    if mode == "exhaustive" and n > EXHAUSTIVE_LIMIT:
        raise VerifyError("exhaustive verification checks 2^(n-1) - 1 cuts; "
                          "n = %d is above its limit of %d vertices"
                          % (n, EXHAUSTIVE_LIMIT))

    verts = sorted(g.vertices)
    samples = 0
    if mode == "exhaustive":
        cuts = _all_cuts(verts)
        side = _all_sides(n)
    else:
        vset = g.vertex_set()
        cuts = []
        seen = set()

        def push(b):
            b = frozenset(b)
            if b and b != vset and b not in seen:
                # store each cut by the side avoiding the last vertex, so a
                # side and its complement are never both checked
                comp = vset - b
                key = b if verts[-1] not in b else comp
                if key in seen:
                    return
                seen.add(key)
                cuts.append(key)

        for v in verts:
            push({v})
        for node in t.nodes():
            push(node.members)
        rng = random.Random(cfg.seed)
        samples = cfg.samples
        for _ in range(samples):
            k = rng.randint(1, n - 1)
            push(rng.sample(verts, k))
        side = cut_sides(verts, cuts)

    scale, mincut = mincut_plan(t)
    caps, mcs = _capacities(g, side), mincut(side).tolist()
    # one Fraction per distinct value and one record tail per distinct pair
    # of capacity c and scaled tree estimate m; the ratios m / (c * scale)
    # are compared in ints
    cap_of = {c: Fraction(c) for c in set(caps)}
    mc_of = {m: Fraction(m, scale) for m in set(mcs)}
    shared = {}
    top = (1, 1)              # the worst ratio so far, as (m, c * scale)
    for c, m in set(zip(caps, mcs)):
        ratio = None
        # a zero cut has no ratio, nor has a violation (c above estimate)
        if 0 < c * scale <= m:
            ratio = Fraction(m, c * scale)
            if m * top[1] > top[0] * c * scale:
                top = (m, c * scale)
        shared[c, m] = (cap_of[c], mc_of[m], ratio)
    records = [(b,) + shared[k] for b, k in zip(cuts, zip(caps, mcs))]
    violations = [b for b, c, m in zip(cuts, caps, mcs) if c * scale > m]
    worst = Fraction(*top)
    return QualityReport(records, worst, mode, samples, cfg.seed, violations)
