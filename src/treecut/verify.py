"""End-to-end quality measurement of a decomposition tree against its graph.

The tree's cut estimates must dominate every graph cut (lower bound,
unconditional) and stay within a declared multiplicative envelope of it
(quality).  Verification is exhaustive at small sizes and sampled above,
with singleton and tree-node cuts always forced into the sample.
"""

import json
import random
from fractions import Fraction

from .config import DEFAULT, Config
from .graph import Graph, cut_capacity
from .oracle import _log2n
from .tree import DecompositionTree, mincut_plan
from .util import frac_str, rloglog2


class VerifyError(ValueError):
    pass


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
    """Every proper nonempty cut once: the side avoiding the last vertex."""
    verts = sorted(vertices)
    n = len(verts)
    for mask in range(1, 1 << (n - 1)):
        yield frozenset(verts[i] for i in range(n - 1) if (mask >> i) & 1)


def verify_quality(g: Graph, t: DecompositionTree, mode=None,
                   cfg: Config = DEFAULT) -> QualityReport:
    """Measure the tree's cut quality.

    mode: None picks exhaustive for n <= 12, else sampled; or force
    "exhaustive" / "sampled" explicitly."""
    _check_pair(g, t)
    n = g.vertex_count
    if n < 2:
        raise VerifyError("need at least two vertices to have a cut")
    if mode is None:
        mode = "exhaustive" if n <= 12 else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise VerifyError("unknown verification mode %r" % mode)

    verts = sorted(g.vertices)
    samples = 0
    if mode == "exhaustive":
        cuts = list(_all_cuts(verts))
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

    records = []
    violations = []
    worst = Fraction(1)
    mincut = mincut_plan(t)
    for b in cuts:
        cap = Fraction(cut_capacity(g, b))
        mc = mincut(b)
        if cap > mc:
            violations.append(b)
            records.append((b, cap, mc, None))
            continue
        ratio = mc / cap if cap > 0 else None
        if ratio is not None:
            worst = max(worst, ratio)
        records.append((b, cap, mc, ratio))
    return QualityReport(records, worst, mode, samples, cfg.seed, violations)
