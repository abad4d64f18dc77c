"""End-to-end quality measurement of a decomposition tree against its graph.

The tree's cut estimates must dominate every graph cut (lower bound,
unconditional) and stay within a declared multiplicative envelope of it
(quality).  Verification is exhaustive at small sizes and sampled above,
with singleton and tree-node cuts always forced into the sample.
"""

import json
import random
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import ceil, log

import numpy as np

from .config import DEFAULT, Config
from .graph import Graph
from .oracle import _log2n
from .tree import DecompositionTree, _row_chunks, cut_sides, mincut_plan
from .util import int_dtype, rloglog2

# Exhaustive verification keeps two ints for each of its 2^(n-1) - 1 cuts
# and no frozenset; its time and memory double with each vertex, to about
# 2.5 s and 128 MiB at this limit (n = 24, 2 vCPUs).  Exact cut enumeration
# up to graph.BRUTE_THRESHOLD vertices first tables 2^(n - 13) sides of
# n + 2 ints each (graph._min_ratio_side), so the same limit bounds it.
EXHAUSTIVE_LIMIT = 24


class VerifyError(ValueError):
    pass


def quality_envelope(n, cfg: Config = DEFAULT):
    """The declared quality bound quality_C * (log2 n)^2 * max(1, log2 log2 n)
    for an n-vertex graph."""
    return cfg.quality_C * _log2n(n) ** 2 * rloglog2(max(2, n))


class QualityReport:
    """The cuts checked, the worst ratio of tree estimate to cut capacity,
    and the list of lower-bound violations (must stay empty).

    Its cuts are a CutTable, which keeps two ints per cut (and, in sampled
    mode, one packed bit row) and builds a cut's record only when it is
    read."""

    def __init__(self, cuts, worst, mode, samples, seed, violations):
        self._cuts = cuts
        self.worst = worst            # max ratio (the measured quality)
        self.mode = mode              # "exhaustive" | "sampled"
        self.samples = samples
        self.seed = seed
        self.violations = violations  # cuts with cap > tree estimate

    @cached_property
    def records(self):
        """[(frozenset, int cap, int tree estimate, Fraction ratio|None)],
        one per cut checked."""
        return self._cuts.records()

    @property
    def cuts_checked(self):
        return len(self._cuts)

    @property
    def ok(self):
        return not self.violations

    def within_envelope(self, n, cfg: Config = DEFAULT):
        return self.ok and self.worst <= quality_envelope(n, cfg)

    def to_json(self):
        doc = {"format_version": 1,
               "mode": self.mode,
               "worst_ratio": str(self.worst),
               "cuts_checked": self.cuts_checked,
               "violations": [sorted(c) for c in self.violations]}
        if self.mode == "sampled":
            doc["samples"] = self.samples
            doc["seed"] = self.seed
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def table_lines(self, limit=10):
        """The cuts with a ratio, largest ratio first and equal ratios in
        cut order, at most limit of them (all for None)."""
        rows = self._cuts.top(limit)
        out = ["%-30s %10s %10s %10s" % ("cut", "cap", "tree", "ratio")]
        for cut, cap, mc, ratio in rows:
            names = ",".join(str(v) for v in sorted(cut)[:6])
            if len(cut) > 6:
                names += ",..."
            out.append("%-30s %10s %10s %10s"
                       % ("{%s}" % names, cap, mc, ratio))
        return out


class CutTable:
    """The cuts of one verify, row by row: the graph cut capacity c and the
    tree estimate m as int arrays over the rows of the cut source cuts
    (_MaskCuts or _PackedCuts).  cuts.side(i) builds the frozenset of row i
    on demand, and records() reads the sides one _row_chunks chunk at a
    time.  Row i is a violation when c > m, and has the ratio m / c when
    0 < c <= m."""

    def __init__(self, cuts, caps, mcs):
        self.cuts, self.caps, self.mcs = cuts, caps, mcs

    def __len__(self):
        return len(self.caps)

    def _blocks(self):
        # (first row, c, m) in blocks of _CELLS rows, so that no temporary
        # spans every row
        for start, stop in _row_chunks(len(self), 1):
            yield start, self.caps[start:stop], self.mcs[start:stop]

    def _with_ratio(self, c, m):
        return (c > 0) & (c <= m)

    def violating(self):
        return [start + i for start, c, m in self._blocks()
                for i in np.flatnonzero(c > m).tolist()]

    @staticmethod
    def _tail(c, m):
        return c, m, Fraction(m, c) if 0 < c <= m else None

    def records(self):
        # cuts with equal (c, m) share one tail
        keys = list(zip(self.caps.tolist(), self.mcs.tolist()))
        tails = {k: self._tail(*k) for k in set(keys)}
        verts = self.cuts.verts
        sides = (frozenset(compress(verts, row))
                 for start, stop in _row_chunks(len(self), len(verts))
                 for row in self.cuts.sides(start, stop).tolist())
        return [(side,) + tails[k] for side, k in zip(sides, keys)]

    def worst(self):
        """The largest ratio, at least 1, decided in ints over the distinct
        (c, m) pairs of the rows that can hold it."""
        near = set()
        for _, c, m in self._blocks():
            held = self._with_ratio(c, m)
            c, m = c[held], m[held]
            if len(c) and object not in (c.dtype, m.dtype):
                # int64 values below 2^62 give float ratios within 1 + 1e-15
                # of exact, so a block's largest ratios are all within
                # 1 + 1e-9 of its largest float
                ratio = m / c
                held = ratio >= ratio.max() * (1 - 1e-9)
                c, m = c[held], m[held]
            near.update(zip(c.tolist(), m.tolist()))
        top = (1, 1)              # as (m, c)
        for c, m in near:
            if m * top[1] > top[0] * c:
                top = (m, c)
        return Fraction(*top)

    def _ranked(self, rows, limit):
        """The first limit of rows (ascending, each with a ratio) by ratio,
        largest first and equal ratios in row order."""
        caps, mcs = self.caps[rows], self.mcs[rows]
        # number the distinct (c, m) pairs in numpy, so that only they are
        # compared as Fractions, then rank each row by its pair's ratio
        uc, ic = np.unique(caps, return_inverse=True)
        um, im = np.unique(mcs, return_inverse=True)
        up, ip = np.unique(ic.astype(np.int64) * len(um) + im,
                           return_inverse=True)
        ratio = [Fraction(int(um[p % len(um)]), int(uc[p // len(um)]))
                 for p in up.tolist()]
        place = {v: k for k, v in enumerate(sorted(set(ratio), reverse=True))}
        rank = np.array([place[r] for r in ratio], np.intp)[ip]
        return rows[np.argsort(rank, kind="stable")[:limit]]

    def top(self, limit):
        """Records of the rows with a ratio, largest ratio first and equal
        ratios in row order, at most limit of them (all for None).  The
        first limit rows of each block hold the first limit of all.  In an
        int64 block these rows have float ratios of at least 1 - 1e-9
        times the block's limit-th largest (see worst()), so only rows at
        that bound are ranked exactly."""
        best = []
        for start, c, m in self._blocks():
            rows = np.flatnonzero(self._with_ratio(c, m))
            if limit and len(rows) > limit \
                    and object not in (c.dtype, m.dtype):
                ratio = m[rows] / c[rows]
                kth = len(ratio) - limit
                bound = np.partition(ratio, kth)[kth] * (1 - 1e-9)
                rows = rows[ratio >= bound]
            best.append(self._ranked(start + rows, limit))
        rows = self._ranked(np.sort(np.concatenate(best)), limit)
        return [(self.cuts.side(i),) + self._tail(int(self.caps[i]),
                                                  int(self.mcs[i]))
                for i in rows.tolist()]


def _check_pair(g: Graph, t: DecompositionTree):
    if t.graph.vertex_set() != g.vertex_set() or t.graph.cap != g.cap:
        raise VerifyError("tree was not built from this graph")


class _MaskCuts:
    """Every proper nonempty cut over the sorted vertices verts: row i is
    the side avoiding the last vertex whose bit mask over the others is
    i + 1."""

    def __init__(self, verts):
        self.verts = verts

    def __len__(self):
        return (1 << (len(self.verts) - 1)) - 1

    def side(self, i):
        return frozenset(compress(self.verts, map(int, bin(i + 1)[:1:-1])))

    def sides(self, start, stop):
        """cut_sides rows start to stop - 1."""
        masks = np.arange(start + 1, stop + 1, dtype=np.int64)
        side = np.zeros((stop - start, len(self.verts)), bool)
        side[:, :-1] = masks[:, None] >> np.arange(len(self.verts) - 1) & 1
        return side


class _PackedCuts:
    """Cuts as the rows of a packed bit matrix over the sorted vertices
    verts (np.packbits of their cut_sides rows); a row is unpacked, and
    its frozenset built, only when it is read."""

    def __init__(self, verts, packed):
        self.verts, self.packed = verts, packed

    def __len__(self):
        return len(self.packed)

    def side(self, i):
        bits = np.unpackbits(self.packed[i], count=len(self.verts))
        return frozenset(compress(self.verts, bits.tolist()))

    def sides(self, start, stop):
        """cut_sides rows start to stop - 1."""
        return np.unpackbits(self.packed[start:stop], axis=1,
                             count=len(self.verts)).view(bool)


def _draw_rows(rng, n, rows):
    """Boolean matrix of rows random cuts over n columns, drawn as CPython
    3.11's rng.randint(1, n - 1) then rng.sample(range(n), k) draw them:
    the same words of rng.getrandbits in the same order, so row i is True
    at the columns of the i-th sample, and no other Random method is
    called.  Both draws reject words at or above their bound; sample keeps
    a pool of n columns when that is smaller than a set of its k picks
    (its setsize rule) and otherwise rejects columns already picked.  The
    pool branch swaps each pick to the end instead of moving the last
    column into its place, which leaves the same unpicked prefix, so the
    k picks are the pool's last k columns."""
    getrandbits = rng.getrandbits
    kbits = (n - 1).bit_length()
    nbits = n.bit_length()
    pooled = [n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
              for k in range(n)]
    steps = [(m, m.bit_length(), m - 1) for m in range(n, 1, -1)]
    columns = list(range(n))
    picks, sizes = [], []
    for _ in range(rows):
        k = getrandbits(kbits)
        while k >= n - 1:
            k = getrandbits(kbits)
        k += 1
        if pooled[k]:
            pool = columns[:]
            for m, bits, last in steps[:k]:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                pool[j], pool[last] = pool[last], pool[j]
            picks += pool[n - k:]
        else:
            picked = set()
            for _ in range(k):
                j = getrandbits(nbits)
                while j >= n or j in picked:
                    j = getrandbits(nbits)
                picked.add(j)
            picks += picked
        sizes.append(k)
    side = np.zeros(rows * n, bool)
    side[np.repeat(np.arange(0, rows * n, n), sizes)
         + np.array(picks, np.intp)] = True
    return side.reshape(rows, n)


def _sampled_cuts(t: DecompositionTree, verts, cfg: Config):
    """The singletons, the tree nodes' members and cfg.samples random cuts,
    in that order, each stored by its side avoiding the last vertex, with
    the empty side and repeats dropped (the first of equal rows kept).

    The random cuts are the rows of _draw_rows(Random(cfg.seed), ...), one
    row chunk at a time: a cut holds k = randint(1, n - 1) of the n
    columns, drawn as sample(range(n), k) draws them, and column j stands
    for verts[j]."""
    n = len(verts)
    blocks = [np.eye(n, dtype=bool),
              cut_sides(verts, (node.members for node in t.nodes()))]
    rng = random.Random(cfg.seed)
    for start, stop in _row_chunks(cfg.samples, n):
        blocks.append(_draw_rows(rng, n, stop - start))
    packed = []
    for side in blocks:
        # a side holding the last vertex turns into its complement, so a
        # cut and its complement share one row, and the empty and full
        # sides both become all-False rows, dropped below
        side ^= side[:, -1:]
        packed.append(np.packbits(side, axis=1))
    packed = np.concatenate(packed)
    packed = packed[packed.any(axis=1)]
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return _PackedCuts(verts, packed[np.sort(first)])


def _edge_arrays(g: Graph):
    """(a, b, caps): the columns of every edge's two ends among the sorted
    vertices and the edges' capacities, as ints (see int_dtype)."""
    column = {v: i for i, v in enumerate(g.vertices)}
    return (np.array([column[u] for u, _, _ in g.edges], np.intp),
            np.array([column[v] for _, v, _ in g.edges], np.intp),
            np.array([c for _, _, c in g.edges],
                     int_dtype(sum(c for _, _, c in g.edges))))


def _capacities(edges, side):
    """Graph cut capacity of every row of a cut_sides matrix, as ints,
    from the _edge_arrays of the graph."""
    a, b, caps = edges
    return (side[:, a] != side[:, b]).astype(caps.dtype) @ caps


def verify_quality(g: Graph, t: DecompositionTree, mode=None,
                   cfg: Config = DEFAULT) -> QualityReport:
    """Measure the tree's cut quality.

    mode: None picks exhaustive for n <= 12, else sampled; or force
    "exhaustive" (up to EXHAUSTIVE_LIMIT vertices) / "sampled" explicitly.
    The cuts are scored in row chunks of cut_sides matrices: capacities
    as one gather and integer dot product per chunk, over edge arrays made
    once, and tree min-cuts from mincut_plan.  Exhaustive mode makes each
    chunk's rows from their bit masks and keeps no rows.  Sampled mode
    draws its cuts from the words of Random(cfg.seed).getrandbits as the
    stdlib's randint and sample would, writes them straight into boolean
    rows, and keeps the forced and sampled rows as one packed bit matrix,
    deduplicated in numpy (see _sampled_cuts).  The report keeps the two
    score arrays (a CutTable), builds frozensets only for violations and
    decides the worst ratio in ints; its records are built when first
    read."""
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
    if mode == "exhaustive":
        cuts, samples = _MaskCuts(verts), 0
    else:
        cuts, samples = _sampled_cuts(t, verts, cfg), cfg.samples

    edges = _edge_arrays(g)
    mincut = mincut_plan(t)
    rows = len(cuts)
    caps = mcs = None
    for start, stop in _row_chunks(rows, n):
        chunk = cuts.sides(start, stop)
        c, m = _capacities(edges, chunk), mincut(chunk)
        if caps is None:
            caps, mcs = np.empty(rows, c.dtype), np.empty(rows, m.dtype)
        caps[start:stop], mcs[start:stop] = c, m
    table = CutTable(cuts, caps, mcs)
    violations = [cuts.side(i) for i in table.violating()]
    return QualityReport(table, table.worst(), mode, samples, cfg.seed,
                         violations)
