import random
import sys
from fractions import Fraction

import pytest

from treecut import graph, merge, oracle
from treecut.config import DEFAULT
from treecut.flow import ORACLE_CONGESTION_LIMIT
from treecut.graph import Graph, parse_edge_list
from treecut.merge import (MergeError, is_balanced_clustering, merge_phase,
                           merge_phase_1, merge_phase_2, shrink_step,
                           solve_attachment_flow)
from treecut.tree import build_basic, build_improved
from treecut.verify import verify_quality

from corpus import (dumbbell, random_graph, reference_balanced_clustering,
                    view_of)


def barbell_k5():
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append("%d %d" % (base + i, base + j))
    edges.append("4 5")
    return parse_edge_list("\n".join(edges))


class TestBalancedClustering:
    def test_all_edges_is_balanced(self):
        g = dumbbell()
        ok, comps = is_balanced_clustering(g, [k for k in g.cap])
        assert ok
        assert all(len(z) == 1 for z in comps)

    def test_giant_component_rejected(self):
        g = dumbbell()
        # cutting the bridge leaves two triangles: 3 <= (2/3) * 6, balanced
        ok, _ = is_balanced_clustering(g, [(2, 3)])
        assert ok
        # no cut at all leaves one component of 6, which is too big
        ok2, _ = is_balanced_clustering(g, [])
        assert not ok2

    def test_matches_the_graph_reference(self):
        """Same (ok, components) as building G[S] minus F as a Graph, with
        F's keys in either orientation."""
        rng = random.Random(71)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12),
                             rng.choice((0.2, 0.5, 0.9)), 4)
            f = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v, _ in g.edges if rng.random() < 0.4]
            got = is_balanced_clustering(g, f)
            assert got == reference_balanced_clustering(g, f)
            assert all(type(z) is frozenset for z in got[1])


class TestShrink:
    def test_shrink_certifies_or_shrinks(self):
        g = barbell_k5()
        view = view_of(g, range(10))
        f = frozenset(view.inner_keys)
        res = shrink_step(view, f)
        if res.case == 1:
            cap_old = sum(g.cap[k] for k in f)
            cap_new = sum(g.cap[k] for k in res.f_new)
            assert cap_new < cap_old
        else:
            assert res.alpha is not None

    def test_unbalanced_input_rejected(self):
        g = dumbbell()
        view = view_of(g, range(6))
        with pytest.raises(MergeError):
            shrink_step(view, [])


class TestAttachmentFlow:
    def test_escalates_the_cap_only(self):
        """One unit along the path 0-1-2 needs congestion 1: from a declared
        cap of 1/64 the cap doubles six times; the sink caps never grow, so
        a demand beyond the cap limit has no flow."""
        g = parse_edge_list("0 1\n1 2\n")
        cfg = DEFAULT.replace(oracle_congestion_cap=Fraction(1, 64))
        rec = solve_attachment_flow(g, {0: Fraction(1)}, {2: Fraction(1)},
                                    cfg)
        assert not rec.within_declared
        assert (rec.congestion_cap, rec.sink_boost) == (1, 1)
        assert rec.flow.value == 1
        sol = rec.flow
        assert (sol.source_out, sol.sink_in) == ({0: 1}, {2: 1})
        rec = solve_attachment_flow(g, {0: Fraction(1)}, {2: Fraction(1)},
                                    DEFAULT)
        assert rec.within_declared and rec.congestion_cap == 4
        big = Fraction(ORACLE_CONGESTION_LIMIT + 1)
        assert solve_attachment_flow(g, {0: big}, {2: big}, DEFAULT) is None

    @pytest.mark.parametrize("build", [build_basic, build_improved])
    def test_reached_from_a_build(self, build, monkeypatch):
        """On this graph shrink_step certifies an UnbalancedExpander core
        through the attachment flow once per build.  The tree verifies at
        the declared cap, and still does when a cap of 1/64 has to escalate
        to 1."""
        g = Graph(range(12), [(0, 6, 6), (0, 9, 3), (0, 11, 7), (1, 9, 6),
                              (3, 5, 5), (3, 8, 1), (3, 9, 8), (3, 10, 1),
                              (4, 9, 5), (6, 8, 2), (6, 11, 7), (7, 10, 6),
                              (8, 11, 8), (9, 11, 8)])
        recs = []

        def recorded(*args):
            recs.append(solve_attachment_flow(*args))
            return recs[-1]

        monkeypatch.setattr(merge, "solve_attachment_flow", recorded)
        low = DEFAULT.replace(oracle_congestion_cap=Fraction(1, 64))
        for cfg in (DEFAULT, low):
            recs.clear()
            t = build(g, cfg)
            assert recs and None not in recs
            report = verify_quality(g, t, mode="exhaustive", cfg=cfg)
            assert not report.violations
            assert report.worst == Fraction(31, 6)
        assert all(not r.within_declared and r.congestion_cap == 1
                   for r in recs)


class TestMergePhase1:
    def test_terminal_clustering_is_balanced(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 9), 0.6, 3)
            view = view_of(g, g.vertices)
            cl = merge_phase_1(view)
            n = len(view.cluster)
            for z in cl.components:
                assert 3 * len(z) <= 2 * n or n == 1
            # re-tightened F is exactly the inter-component edge set
            comp_of = {}
            for i, z in enumerate(cl.components):
                for v in z:
                    comp_of[v] = i
            want = {(u, v) for u, v, _ in view.inner_edges
                    if comp_of[u] != comp_of[v]}
            assert set(cl.f_keys) == want
            assert cl.f_keys <= cl.f_tilde

    def test_declared_expansion_holds_when_measurable(self, monkeypatch):
        """When the subdivision is small enough for exact measurement, the
        measured expansion of the inter-cluster split nodes meets the
        declared lower bound.  The merge phase itself never enumerates cuts
        to measure it: every min_ratio_cut call it makes, at any binding,
        comes from inside the oracle's sparsest_cut."""
        exact = graph.min_ratio_cut
        sparsest = oracle.sparsest_cut
        depth, calls = [0], []

        def in_sparsest(*args, **kwargs):
            depth[0] += 1
            try:
                return sparsest(*args, **kwargs)
            finally:
                depth[0] -= 1

        def counted(*args, **kwargs):
            calls.append(depth[0])
            return exact(*args, **kwargs)

        for mod in [m for name, m in sys.modules.items()
                    if name.split(".")[0] == "treecut"]:
            for name, orig, fn in (("min_ratio_cut", exact, counted),
                                   ("sparsest_cut", sparsest, in_sparsest)):
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, fn)
        rng = random.Random(31)
        checked = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 6), 0.8, 3)
            view = view_of(g, g.vertices)
            cl = merge_phase_1(view)
            if view.sub_in.vertex_count > DEFAULT.brute_threshold \
                    or cl.alpha_declared is None:
                continue
            measured, _ = exact(view.sub_in, view.split_measure(cl.f_keys),
                                DEFAULT.brute_threshold)
            if measured is None:
                continue
            exact_tags = all(o.certificate is None or
                             o.certificate.verified == "exact"
                             for o in cl.outcomes)
            if exact_tags:
                assert measured >= cl.alpha_declared
                checked += 1
        assert calls and all(calls)
        assert checked >= 5

    def test_barbell_needs_a_shrink_iteration(self):
        g = barbell_k5()
        view = view_of(g, range(10))
        cl = merge_phase_1(view)
        assert cl.iterations >= 2
        assert any(o.tag != "Expander" for o in cl.outcomes)

    def test_singleton_cluster(self):
        g = dumbbell()
        cl = merge_phase_1(view_of(g, [0]))
        assert cl.components == (frozenset({0}),)
        assert not cl.f_keys


class TestMergePhase2:
    def test_boundaryless_cluster_degenerates(self):
        g = dumbbell()
        view = view_of(g, range(6))
        part = merge_phase(view, Fraction(1, 3))
        assert not part.x_y
        assert part.r_side == frozenset()
        assert part.l_side == frozenset(range(6))

    def test_separator_separates(self):
        g = parse_edge_list(
            "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6 5\n5 6 5\n")
        view = view_of(g, range(6))
        part = merge_phase(view, Fraction(1, 2))
        gsp = view.sprime
        reach = gsp.reachable(sorted(view.x_boundary - part.x_y),
                              removed=part.x_y)
        assert not (reach & part.l_side)
        assert not (reach & (part.clustering.x_f - part.x_y))
        assert part.r_side == frozenset({4, 5})

    def test_separator_flow_contracts(self):
        """Every separator node ships exactly its weight to each side, sinks
        stay within twice their weight, congestion stays within two."""
        rng = random.Random(37)
        exercised = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(4, 8), 0.6, 3)
            verts = list(g.vertices)
            k = rng.randint(2, len(verts) - 1)
            cluster = verts[:k]
            view = view_of(g, cluster)
            if len(cluster) < 2:
                continue
            tau = Fraction(1, rng.randint(2, 4))
            part = merge_phase(view, tau)
            if part.x_y:
                exercised += 1
            for sep in (part.flow_to_b, part.flow_to_f):
                assert sep.congestion <= 2
                for x in part.x_y:
                    total = sum((a for _, a in sep.per_source.get(x, [])),
                                Fraction(0))
                    assert total == part.mu_tau[x]
                for t, got in sep.sink_in.items():
                    assert got <= 2 * part.mu_tau[t]
        assert exercised >= 5

    def test_sub_cluster_sizes(self):
        rng = random.Random(39)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 9), 0.6, 3)
            view = view_of(g, g.vertices)
            part = merge_phase(view, Fraction(1, 2))
            n = len(view.cluster)
            for p in part.sub_clusters:
                assert 3 * len(p) <= 2 * n
            assert frozenset().union(*part.sub_clusters) == view.cluster

    def test_tau_validation(self):
        g = dumbbell()
        view = view_of(g, [0, 1, 2])
        cl = merge_phase_1(view)
        with pytest.raises(MergeError):
            merge_phase_2(view, cl, Fraction(3, 2))
        with pytest.raises(MergeError):
            merge_phase_2(view, cl, 0)
