"""Seeded inputs, checked operations and the three benchmark workloads.

Every input is generated here from the workload seed; the library only ever
receives the finished graphs, demand states and cuts.
"""

import hashlib
import json
import random
import time
import weakref
from contextlib import nullcontext
from fractions import Fraction

from treecut import replay, tree, verify
from treecut.config import DEFAULT, Config
from treecut.demand import DemandState
from treecut.graph import Graph
from treecut.tree import DecompositionTree

# -- generators -------------------------------------------------------------

ACCEPTANCE_P = (0.25, 0.45, 0.65, 0.85)


def random_graph(rng, n, p, max_cap=8):
    """The acceptance suite's random graph, drawing in the same order."""
    edges = [(i, j, rng.randint(1, max_cap)) for i in range(n)
             for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def acceptance_stream(seed):
    """Endless stream of graphs drawn exactly as the acceptance suite's
    ``corpus`` fixture draws them; seed 42 yields that corpus in order."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 12)
        p = rng.choice(ACCEPTANCE_P)
        yield random_graph(rng, n, p)


def subdivision_size(g):
    """Vertices plus edges of g's largest component: the size of the biggest
    subdivision graph the oracle enumerates while building g's tree."""
    best = 0
    for comp in g.components():
        m = sum(1 for u, v, _ in g.edges if u in comp)
        best = max(best, len(comp) + m)
    return best


def stratified_corpus(seed, cells, per_cell, max_draws=400000):
    """Graphs from ``acceptance_stream(seed)``, kept in stream order until
    every cell (subdivision size s, vertex count n) listed in ``cells`` as
    s -> (lowest n, highest n) holds ``per_cell`` graphs; graphs of other
    cells are skipped.

    Build cost grows like 2^s and exhaustive verify cost like 2^n, so a
    plain prefix of the stream has a few instances that carry most of the
    time, and the total swings with the seed.  A fixed number of graphs per
    cell keeps the mix, and with it the run time, alike for every seed."""
    left = {(s, n): per_cell for s, (lo, hi) in cells.items()
            for n in range(lo, hi + 1)}
    kept = []
    stream = acceptance_stream(seed)
    for _ in range(max_draws):
        g = next(stream)
        key = (subdivision_size(g), g.vertex_count)
        if left.get(key, 0) > 0:
            left[key] -= 1
            kept.append(g)
            if not any(left.values()):
                return kept
    raise RuntimeError("seed %d: cells %r not filled after %d draws"
                       % (seed, sorted(k for k, v in left.items() if v),
                          max_draws))


def ring_of_cliques(k, s, inner=3, link=1):
    """k cliques of s vertices (capacity `inner`) joined in a ring by single
    edges of capacity `link`; vertices are numbered clique by clique."""
    edges = []
    for c in range(k):
        base = c * s
        edges += [(base + i, base + j, inner)
                  for i in range(s) for j in range(i + 1, s)]
        if k > 1:
            edges.append((base + s - 1, ((c + 1) % k) * s, link))
    return Graph(range(k * s), edges)


def path(n):
    return Graph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return Graph(range(rows * cols), edges)


def demand_triple(rng, n):
    """A demand state of one to three commodities, each one unit pair, and
    a cut side: the acceptance suite's replay triples."""
    entries = {}
    for k in range(rng.randint(1, 3)):
        u, v = rng.sample(range(n), 2)
        a = Fraction(rng.randint(1, 4))
        entries[(u, k)] = entries.get((u, k), Fraction(0)) + a
        entries[(v, k)] = entries.get((v, k), Fraction(0)) - a
    cut = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
    return DemandState(entries), cut


def scale_to_respect(t, p):
    """p scaled down until the tree 1-respects it, or None when some tree
    cut has capacity 0 but positive demand."""
    verts = t.graph.vertex_set()
    worst = Fraction(0)
    for node in t.nodes():
        if node.members == verts:
            continue
        d = p.dem_across(node.members)
        if d == 0:
            continue
        mc = tree.mincut_in_tree(t, node.members)
        if mc == 0:
            return None
        worst = max(worst, d / mc)
    return p.scaled(Fraction(1) / worst) if worst > 1 else p


# -- measured statistics of outputs ------------------------------------------

def tree_depth(node):
    return 1 + max(map(tree_depth, node.children)) if node.children else 0


def star_alpha(g, report):
    """Quality of the star tree (root to every vertex, leaf weight deg v)
    over the cuts the report checked: its cut value for S is
    min(deg S, deg V-S)."""
    deg = {v: g.degree(v) for v in g.vertices}
    total = sum(deg.values())
    worst = Fraction(1)
    for side, cap, _, _ in report.records:
        if cap > 0:
            d = sum(deg[v] for v in side)
            worst = max(worst, Fraction(min(d, total - d)) / cap)
    return worst


# -- checked, timed operations ------------------------------------------------

class Records:
    """One row per built tree, filled in by the build and its verify."""

    def __init__(self):
        self.rows = []
        self._of = weakref.WeakKeyDictionary()

    def add(self, t, row):
        self.rows.append(row)
        self._of[t] = row

    def of(self, t):
        return self._of.get(t)


class Ops:
    """Times each call into the library, checks its output and hashes it.

    An operation fails when it raises, when a quality report has violations
    or leaves the declared envelope, when a tree's JSON does not survive
    to_json -> from_json -> to_json byte for byte, or when a replay ends
    outside its envelope.  Failures are counted, never fatal."""

    def __init__(self, probe, tracer=None, records=None):
        self.probe = probe
        self.tracer = tracer
        # (phase, wall seconds less the probe's, start, end) per operation
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.alphas = []
        self.digest = hashlib.sha256()
        self.records = records

    def _timed(self, phase, fn, *args):
        """(fn(*args), its wall seconds less the speed probe's); the result
        is None if it raised."""
        self.attempted += 1
        scope = self.tracer.phase(phase) if self.tracer else nullcontext()
        probed = self.probe.spent
        t0 = time.perf_counter()
        try:
            with scope:
                out = fn(*args)
        except Exception as exc:  # a failing operation is a measured result
            out = None
            self._fail(phase, "%s: %s" % (type(exc).__name__, exc))
        t1 = time.perf_counter()
        secs = t1 - t0 - (self.probe.spent - probed)
        self.times.append((phase, secs, t0, t1))
        return out, secs

    def wall(self):
        """Wall seconds of all operations, the probe's included."""
        return sum(t1 - t0 for _, _, t0, t1 in self.times)

    def _fail(self, phase, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (phase, why))

    def build(self, g, mode, label):
        fn = tree.build_basic if mode == "basic" else tree.build_improved
        t, secs = self._timed("build", fn, g)
        if t is None:
            return None
        text = t.to_json()
        try:
            again = DecompositionTree.from_json(text).to_json()
        except Exception as exc:  # a tree that cannot be read back failed
            again = "%s: %s" % (type(exc).__name__, exc)
        if again != text:
            self._fail("build", "%s %s: JSON round trip changed the tree"
                       % (label, mode))
            return None
        self.digest.update(text.encode())
        if self.records is not None:
            rec = {"instance": label, "n": g.vertex_count, "m": g.edge_count,
                   "mode": mode, "depth": tree_depth(t.root),
                   "nodes": len(t.nodes()), "build_s": round(secs, 6),
                   "alpha": None, "star_alpha": None}
            self.records.add(t, rec)
        return t

    def verify(self, g, t, cfg=DEFAULT):
        rep, _ = self._timed("verify", verify.verify_quality, g, t, None, cfg)
        if rep is None:
            return None
        n = g.vertex_count
        if rep.violations or not rep.within_envelope(n, cfg):
            self._fail("verify", "n=%d %s: alpha %s, %d violations"
                       % (n, t.mode, rep.worst, len(rep.violations)))
            return None
        self.alphas.append(rep.worst)
        self.digest.update(rep.to_json().encode())
        rec = self.records.of(t) if self.records is not None else None
        if rec is not None:
            rec["alpha"] = float(rep.worst)
            rec["star_alpha"] = float(star_alpha(g, rep))
            rec["verify"] = rep.mode
        return rep

    def replay(self, t, p, cut):
        rep, _ = self._timed("replay", replay.full_replay, t, p, cut)
        if rep is None:
            return None
        if not rep.within_envelope:
            self._fail("replay", "n=%d %s: charge %s above envelope %s"
                       % (t.graph.vertex_count, t.mode, rep.max_charge,
                          rep.envelope))
            return None
        self.digest.update(json.dumps(
            [str(x) for x in (rep.dem_p, rep.cap_cut, rep.initial_dem,
                              rep.max_charge, rep.envelope)]).encode())
        return rep


def replay_triples(rng, trees, per_tree):
    """per_tree (tree, demand state, cut) triples for each tree, the state
    scaled until that tree 1-respects it; draws a tree cannot carry at any
    scale are skipped."""
    out = []
    for t in trees:
        n = t.graph.vertex_count
        made = tries = 0
        while made < per_tree and tries < 20 * per_tree:
            tries += 1
            p, cut = demand_triple(rng, n)
            p = scale_to_respect(t, p)
            if p is not None:
                out.append((t, p, cut))
                made += 1
    return out


def warm_up(ops):
    """Run every code path once before timing: the first basic build of a
    3x4 grid imports scipy inside the sweep backend (about 0.5 s)."""
    g = grid(3, 4)
    for mode in ("basic", "improved"):
        t = ops.build(g, mode, "warm-up")
        if t is not None:
            ops.verify(g, t, Config(samples=50))
            for t_, p, cut in replay_triples(random.Random(0), [t], 1):
                ops.replay(t_, p, cut)


# -- workloads ----------------------------------------------------------------

class SmallExact:
    """Acceptance-style random graphs, each built in both modes and verified
    exhaustively, and replayed when it has at most 9 vertices: the traffic
    of the acceptance suite and scripts/quality_experiment.py.  The oracle
    calls on them are exact enumerations, so graph.min_ratio_cut carries
    build_s and tree.mincut_in_tree carries verify_s; refinement,
    respects_exact and the sweep backend stay near zero.

    The fixed structured graphs of the roadmap's corpus (a 3x4 grid, a 2x6
    grid and a 12-vertex path, with alpha 17/3, 8 and 11) are built and
    verified too.  They are the same for every seed, so the path's alpha
    bounds alpha_max from below: the largest alpha of the random graphs
    alone ranges from 8 to 13 across seeds."""

    name = "small-exact"
    timed_builds = True
    # Cells kept, as subdivision size -> (lowest, highest) vertex count:
    # every cell that at least 1 in 2000 acceptance draws falls into, up to
    # size 13.  That keeps every oracle call an exact enumeration of at most
    # 2^12 sides and every verify exhaustive.
    CELLS = {1: (2, 5), 3: (2, 8), 5: (3, 8), 6: (3, 6), 7: (4, 9),
             8: (4, 7), 9: (4, 9), 10: (4, 9), 11: (5, 9), 12: (5, 9),
             13: (5, 10)}
    PER_CELL = 2
    SMOKE_CELLS = {3: (3, 3), 5: (4, 4), 7: (5, 5)}
    # replays per tree of every graph with edges and at most 9 vertices, as
    # in the acceptance suite's charging-replay criterion
    REPLAY_MAX_N = 9
    REPLAYS_PER_TREE = 2

    def setup(self, seed, smoke, ops):
        if smoke:
            graphs = stratified_corpus(seed, self.SMOKE_CELLS, 1)
        else:
            graphs = stratified_corpus(seed, self.CELLS, self.PER_CELL)
            graphs += [grid(3, 4), grid(2, 6), path(12)]
        return {"graphs": graphs, "seed": seed,
                "replays": 1 if smoke else self.REPLAYS_PER_TREE}

    def run(self, state, ops):
        rng = random.Random(state["seed"])
        for i, g in enumerate(state["graphs"]):
            trees = [ops.build(g, mode, "g%d" % i)
                     for mode in ("basic", "improved")]
            trees = [t for t in trees if t is not None]
            for t in trees:
                ops.verify(g, t)
            if g.edge_count and g.vertex_count <= self.REPLAY_MAX_N:
                for t, p, cut in replay_triples(rng, trees,
                                                state["replays"]):
                    ops.replay(t, p, cut)


class Rings:
    """Rings of cliques, the only family whose trees nest deeper than one
    level, each built, verified on a sample and replayed.  Builds carry most
    of the round: refine, respects_exact, check_refined, Dinic flows and the
    sweep backend all run here, unlike in small-exact.  The read side is
    there because every workload reports every end-to-end metric."""

    name = "rings"
    timed_builds = True
    # Improved mode on 4x5 drives refine and respects_exact; basic mode on
    # 32x4 is mostly the sweep backend and Dinic flows.  The improved builds
    # of 6x4, 8x6 and 16x4 and the basic 4x5 and 16x4 are left out so that
    # three rounds fit in one run.
    BUILDS = ((4, 5, "improved"), (6, 4, "basic"), (8, 6, "basic"),
              (32, 4, "basic"))
    SMOKE_BUILDS = ((3, 3, "basic"), (3, 3, "improved"))
    REPLAY_MAX_N = 48
    REPLAYS_PER_TREE = 8
    VERIFY_SAMPLES = 500

    def setup(self, seed, smoke, ops):
        # The graphs are fixed: relabelling a ring moves build time by up to
        # a fifth, so the seed draws only the verify sample and the replays.
        builds = self.SMOKE_BUILDS if smoke else self.BUILDS
        return {"builds": [(ring_of_cliques(k, s), "%dx%d" % (k, s), mode)
                           for k, s, mode in builds],
                "seed": seed}

    def run(self, state, ops):
        seed = state["seed"]
        cfg = Config(samples=self.VERIFY_SAMPLES, seed=seed)
        rng = random.Random(seed)
        for g, label, mode in state["builds"]:
            t = ops.build(g, mode, label)
            if t is None:
                continue
            ops.verify(g, t, cfg)
            if g.vertex_count <= self.REPLAY_MAX_N:
                for t_, p, cut in replay_triples(rng, [t],
                                                 self.REPLAYS_PER_TREE):
                    ops.replay(t_, p, cut)


class Query:
    """The read side alone: sampled verify with the default Config (10,000
    samples plus forced cuts) of two large ring trees, and replay of seeded
    1-respected demand states on trees of at most 16 vertices.  Every tree
    is built during set-up, so a build-side speed-up moves build_s and
    setup_s here but should leave verify_s and replay_s unchanged."""

    name = "query"
    timed_builds = False
    VERIFY_RINGS = ((8, 6), (6, 4))
    REPLAY_RINGS = ((3, 4), (4, 4))
    REPLAY_RANDOM = 4
    REPLAYS_PER_TREE = 30
    SMOKE_VERIFY_RINGS = ((3, 4),)
    SMOKE_REPLAY_RINGS = ((3, 3),)

    def setup(self, seed, smoke, ops):
        rng = random.Random(seed)
        verify_trees = []
        for k, s in (self.SMOKE_VERIFY_RINGS if smoke else self.VERIFY_RINGS):
            g = ring_of_cliques(k, s)
            t = ops.build(g, "basic", "%dx%d" % (k, s))
            if t is not None:
                verify_trees.append((g, t))
        rings = self.SMOKE_REPLAY_RINGS if smoke else self.REPLAY_RINGS
        graphs = [ring_of_cliques(k, s) for k, s in rings]
        # plus connected acceptance-style graphs of at least 5 vertices whose
        # subdivision graph has at most 12 vertices, so they build quickly
        want = len(graphs) + (1 if smoke else self.REPLAY_RANDOM)
        stream = acceptance_stream(seed)
        while len(graphs) < want:
            g = next(stream)
            if g.vertex_count >= 5 and len(g.components()) == 1 \
                    and subdivision_size(g) <= 12:
                graphs.append(g)
        replay_trees = []
        for i, g in enumerate(graphs):
            for mode in ("basic", "improved"):
                t = ops.build(g, mode, "r%d" % i)
                if t is not None:
                    replay_trees.append(t)
        per_tree = 2 if smoke else self.REPLAYS_PER_TREE
        return {"verify": verify_trees,
                "replays": replay_triples(rng, replay_trees, per_tree)}

    def run(self, state, ops):
        # replays interleaved with the verify calls, so both sample the
        # machine over the whole round
        k = len(state["verify"])
        for i, (g, t) in enumerate(state["verify"]):
            ops.verify(g, t)
            for t_, p, cut in state["replays"][i::k]:
                ops.replay(t_, p, cut)


WORKLOADS = {w.name: w for w in (SmallExact(), Rings(), Query())}
