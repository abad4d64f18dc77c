import hashlib
import os
import random
from fractions import Fraction

import pytest

from treecut.config import DEFAULT
from treecut.graph import Graph, parse_edge_list
from treecut.tree import build_basic, build_improved
from treecut.verify import EXHAUSTIVE_LIMIT, VerifyError, verify_quality

from corpus import cycle, path, random_graph

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

    def test_tampered_weight_is_caught(self):
        g = parse_edge_list("0 1\n1 2\n")
        t = build_basic(g)
        leaf = next(n for n in t.nodes()
                    if n.is_leaf and n.members == frozenset({1}))
        leaf.weight = Fraction(0)
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

    def test_reports_are_deterministic(self):
        g = Graph(range(13), [(i, (i + 1) % 13, 2) for i in range(13)])
        t = build_basic(g)
        cfg = DEFAULT.replace(samples=40)
        assert verify_quality(g, t, cfg=cfg).to_json() \
            == verify_quality(g, t, cfg=cfg).to_json()


class TestEnvelope:
    def test_corpus_within_declared_envelope(self):
        rng = random.Random(5)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 9), 0.5, 6)
            for build in (build_basic, build_improved):
                r = verify_quality(g, build(g))
                assert r.within_envelope(g.vertex_count)
