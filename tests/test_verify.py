import hashlib
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from treecut.config import DEFAULT
from treecut.graph import Graph, cut_capacity, parse_edge_list
from treecut import tree, verify
from treecut.tree import (DecompositionTree, TreeNode, build_basic,
                          build_improved)
from treecut.verify import (EXHAUSTIVE_LIMIT, CutTable, VerifyError,
                            verify_quality)

from corpus import cycle, grid, path, random_graph, ring_of_cliques

RING = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                    "ring8.edges")
# sha256 of to_json() plus every table line of the ring8 reports, taken
# with the recursive Fraction tree DP that the integer kernel replaced
RING_REPORTS = {
    "exhaustive":
        "8d4bf9eed395cff1f7d87e6ec660c19379f27eef9ad379e0076d365742c337de",
    "sampled":
        "6502b6c7474603d3a2cfb7037a168a826126820ea057277ff432ef503e091c24",
}
# sha256 of to_json() plus the first table line of a default sampled verify
# of the hand-written 4x4 ring tree, taken with the frozenset sampler that
# drew one stdlib rng.sample over the sorted vertices per random cut
SAMPLE_STREAM = \
    "de23e868c8cd0b652e861b5eca271c64a81058286db3274185a4fa27008824db"


def ring_tree(k, s):
    """ring_of_cliques(k, s) under a tree written out by hand: the root,
    the two halves of the ring, each clique, its vertices, every weight the
    graph cut of the node's members.  No oracle runs, so the tree is the
    same on every scipy/LAPACK build."""
    g = ring_of_cliques(k, s)

    def node(members, kind, children=()):
        members = frozenset(members)
        n = TreeNode(members, kind, cut_capacity(g, members)
                     if len(members) < g.vertex_count else 0)
        n.children = list(children)
        return n

    def clique(c):
        verts = range(c * s, (c + 1) * s)
        return node(verts, "merge-cluster",
                    [node({v}, "leaf") for v in verts])

    halves = [node(range(h * s, (h + w) * s), "merge-side",
                   [clique(c) for c in range(h, h + w)])
              for h, w in ((0, k // 2), (k // 2, k - k // 2))]
    return g, DecompositionTree(g, node(g.vertices, "root", halves),
                                "basic")


class TestQuality:
    def test_single_edge_is_exact(self):
        g = parse_edge_list("0 1\n")
        r = verify_quality(g, build_basic(g))
        assert r.mode == "exhaustive"
        assert len(r.records) == 1
        assert r.worst == 1
        assert r.ok

    def test_star_singletons_are_exact(self):
        g = Graph(range(4), [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        r = verify_quality(g, build_basic(g))
        assert r.ok
        for cut, cap, mc, ratio in r.records:
            if len(cut) == 1:
                assert ratio == 1

    def test_exhaustive_covers_every_cut_once(self):
        g = random_graph(random.Random(2), 6, 0.8, 6)
        r = verify_quality(g, build_basic(g))
        assert len(r.records) == 2 ** 5 - 1
        assert len({c for c, _, _, _ in r.records}) == len(r.records)

    def test_ratios_at_least_one(self):
        rng = random.Random(3)
        for _ in range(6):
            g = random_graph(rng, rng.randint(3, 8), 0.5, 6)
            for build in (build_basic, build_improved):
                r = verify_quality(g, build(g))
                assert r.ok
                for _, cap, mc, ratio in r.records:
                    if ratio is not None:
                        assert ratio >= 1
                    else:
                        assert cap == 0 and mc == 0

    def test_mismatched_graph_rejected(self):
        g = parse_edge_list("0 1\n")
        h = parse_edge_list("0 1\n1 2\n")
        with pytest.raises(VerifyError):
            verify_quality(h, build_basic(g))

    def test_exhaustive_above_limit_rejected(self):
        n = EXHAUSTIVE_LIMIT + 1
        g = path(n)
        t = build_basic(g)
        with pytest.raises(VerifyError, match="limit"):
            verify_quality(g, t, "exhaustive")
        assert verify_quality(g, t, cfg=DEFAULT.replace(samples=5)).ok

    def test_exhaustive_memory_stays_per_row(self):
        """A forced exhaustive verify at n = 20 keeps two ints per cut and
        scores its 2^19 - 1 cuts in bounded chunks: its peak allocation
        stays far below one frozenset and one tuple per cut (384 MB)."""
        g = ring_of_cliques(5, 4)
        t = build_basic(g)
        tracemalloc.start()
        try:
            r = verify_quality(g, t, "exhaustive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.cuts_checked == 2 ** 19 - 1 and r.ok
        assert peak < 64 * 2 ** 20

    def test_blocks_do_not_change_the_report(self, monkeypatch):
        """An exhaustive report at n = 18 spans four blocks of rows; with
        one block holding every row, the worst ratio, the violations and
        every table must be the same.  Weight 0 on the heaviest node makes
        violations in every block."""
        g = ring_of_cliques(6, 3)
        t = build_basic(g)
        max(t.nodes()[1:], key=lambda n: n.weight).weight = 0

        def seen(r):
            return ([r.to_json(), r.violations]
                    + [r.table_lines(k) for k in (1, 10, 200)])

        blocked = seen(verify_quality(g, t, "exhaustive"))
        assert blocked[1]
        monkeypatch.setattr(tree, "_CELLS", 1 << 30)
        assert seen(verify_quality(g, t, "exhaustive")) == blocked

    def test_last_block_counts(self):
        """The largest ratio, a violation and the first table row all in
        the last of four blocks of rows."""
        rows = 3 * 2 ** 15 + 5
        caps = np.full(rows, 2, np.int64)
        mcs = np.full(rows, 4, np.int64)
        caps[-1], mcs[-1] = 1, 9
        mcs[-2] = 1
        table = CutTable(lambda i: frozenset({i}), caps, mcs)
        assert table.worst() == 9
        assert table.violating() == [rows - 2]
        assert table.top(2) == [(frozenset({rows - 1}), 1, 9, 9),
                                (frozenset({0}), 2, 4, 2)]

    def test_tampered_weight_is_caught(self):
        g = parse_edge_list("0 1\n1 2\n")
        t = build_basic(g)
        leaf = next(n for n in t.nodes()
                    if n.is_leaf and n.members == frozenset({1}))
        leaf.weight = 0
        r = verify_quality(g, t)
        assert not r.ok
        assert frozenset({1}) in r.violations or any(
            1 in c for c in r.violations)


@pytest.mark.parametrize("build", [build_basic, build_improved])
@pytest.mark.parametrize("mode", sorted(RING_REPORTS))
def test_ring8_report_bytes_pinned(build, mode):
    with open(RING) as fh:
        g = parse_edge_list(fh.read())
    r = verify_quality(g, build(g), mode, DEFAULT.replace(samples=200, seed=0))
    blob = r.to_json() + "\n".join(r.table_lines(limit=None)) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == RING_REPORTS[mode]


# Exhaustive alpha of both build modes (basic, improved) on rings of
# cliques (k cliques of s vertices) and grids: each entry is an upper
# bound, the value when the table was made.  A change that raises one
# fails here and must say so; one that lowers one updates the entry.
EXACT_ALPHA = {
    "ring 3x4": (2, Fraction(21, 13)),
    "ring 4x4": (3, 3),
    "ring 5x4": (3, 3),
    "ring 3x5": (2, Fraction(14, 9)),
    "ring 4x5": (3, 3),
    "ring 3x6": (2, Fraction(12, 7)),
    "grid 4x4": (6, 6),
    "grid 3x6": (9, 9),
}


@pytest.mark.parametrize("name", sorted(EXACT_ALPHA))
def test_exact_alpha_table(name):
    family, shape = name.split()
    a, b = map(int, shape.split("x"))
    g = (ring_of_cliques if family == "ring" else grid)(a, b)
    for build, bound in zip((build_basic, build_improved), EXACT_ALPHA[name]):
        r = verify_quality(g, build(g), mode="exhaustive")
        assert r.ok and r.mode == "exhaustive"
        assert r.worst <= bound, (name, build.__name__, r.worst)


class TestSampled:
    def test_forced_cuts_present(self):
        g = cycle(14)
        t = build_basic(g)
        cfg = DEFAULT.replace(samples=50)
        r = verify_quality(g, t, cfg=cfg)
        assert r.mode == "sampled"
        verts = g.vertex_set()
        checked = {c if max(verts) not in c else verts - c
                   for c, _, _, _ in r.records}
        for v in g.vertices:
            b = frozenset({v})
            key = b if max(verts) not in b else verts - b
            assert key in checked
        for node in t.nodes():
            if node.members == verts:
                continue
            key = node.members if max(verts) not in node.members \
                else verts - node.members
            assert key in checked

    def test_sample_stream_pinned(self):
        """The default verify of a tree that no oracle built: which cuts
        are drawn, which repeat and in what order they are kept all show in
        the cut count and the first table line."""
        g, t = ring_tree(4, 4)
        assert g.vertex_count == 16
        r = verify_quality(g, t)
        assert r.mode == "sampled" and r.samples == DEFAULT.samples
        blob = r.to_json() + r.table_lines()[1] + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == SAMPLE_STREAM

    def test_stdlib_draw_is_not_called(self, monkeypatch):
        """Sampled verify reads only getrandbits: with the stdlib's
        randint and sample refusing, the 4x4 ring tree's default verify
        still gives the pinned report."""
        def refuse(*args, **kwargs):
            raise AssertionError("stdlib draw called")

        for name in ("randint", "randrange", "sample", "_randbelow"):
            monkeypatch.setattr(random.Random, name, refuse)
        g, t = ring_tree(4, 4)
        r = verify_quality(g, t)
        blob = r.to_json() + r.table_lines()[1] + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == SAMPLE_STREAM

    def test_records_unpack_rows_in_chunks(self, monkeypatch):
        """records builds the frozensets of the sampled rows from whole
        chunks of unpacked rows (three here), not through side(i), and
        equals the one-cut-at-a-time reference in values and types."""
        from test_kernels import reference_verify
        g, t = ring_tree(4, 4)
        want = reference_verify(g, t)

        def refuse(self, i):
            raise AssertionError("side(%d) read" % i)

        monkeypatch.setattr(verify._PackedCuts, "side", refuse)
        r = verify_quality(g, t)
        assert r.mode == "sampled"
        assert len(tree._row_chunks(r.cuts_checked, g.vertex_count)) > 1
        assert r.records == want.records
        assert [tuple(map(type, rec)) for rec in r.records] \
            == [tuple(map(type, rec)) for rec in want.records]

    def test_report_memory_stays_per_row(self):
        """A default verify of the 8x6 ring keeps its sampled cuts as packed
        bit rows and two ints each, with no frozenset until records are
        read: the report holds far less than one frozenset per cut."""
        g = ring_of_cliques(8, 6)
        t = build_basic(g)
        verify_quality(g, t)      # plans the tree DP, which the tree keeps
        tracemalloc.start()
        try:
            r = verify_quality(g, t)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.mode == "sampled" and r.cuts_checked > 9000
        assert held <= 2 * 2 ** 20
        verts = g.vertex_set()
        worst = Fraction(1)
        for i, rec in enumerate(r.records):
            side, cap, mc, ratio = rec
            assert type(side) is frozenset and side and max(verts) not in side
            assert type(cap) is int and type(mc) is int
            assert ratio == Fraction(mc, cap) and type(ratio) is Fraction
            worst = max(worst, ratio)
            if i % 97 == 0:
                assert cap == cut_capacity(g, side)
        assert len({rec[0] for rec in r.records}) == r.cuts_checked
        assert worst == r.worst

    def test_reports_are_deterministic(self):
        g = Graph(range(13), [(i, (i + 1) % 13, 2) for i in range(13)])
        t = build_basic(g)
        cfg = DEFAULT.replace(samples=40)
        assert verify_quality(g, t, cfg=cfg).to_json() \
            == verify_quality(g, t, cfg=cfg).to_json()


def stdlib_rows(seed, n, rows):
    """The boolean rows of rows cuts drawn by Random(seed) as
    sample(range(n), randint(1, n - 1)), and the Random's state after."""
    rng = random.Random(seed)
    side = np.zeros((rows, n), bool)
    for row in side:
        row[rng.sample(range(n), rng.randint(1, n - 1))] = True
    return side, rng.getstate()


# random.sample keeps a pool of its n columns, or else a set of its k picks
# with repeats rejected, whichever is smaller: the set from n = 22 for
# k <= 5 and from n = 86 for 6 <= k <= 21.  n = 128 is the rings
# workload's 32x4 ring.
@pytest.mark.parametrize("ns", [range(2, 22), range(22, 86), range(86, 131)],
                         ids=["pool-n2-21", "set-k5-n22-85",
                              "set-k21-n86-130-with-128"])
def test_draw_rows_is_the_stdlib_draw(ns):
    """_draw_rows gives the cuts of randint(1, n - 1) then sample(range(n),
    k), in order, and leaves its Random in the same state, so it read the
    same words.  CPython documents only random() as stable across
    versions: if a later sample draws otherwise, this test says so."""
    for n in ns:
        for seed in range(5):
            want, state = stdlib_rows(seed, n, 200)
            rng = random.Random(seed)
            assert np.array_equal(verify._draw_rows(rng, n, 200), want), \
                (n, seed)
            assert rng.getstate() == state, (n, seed)


class TestEnvelope:
    def test_corpus_within_declared_envelope(self):
        rng = random.Random(5)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 9), 0.5, 6)
            for build in (build_basic, build_improved):
                r = verify_quality(g, build(g))
                assert r.within_envelope(g.vertex_count)
