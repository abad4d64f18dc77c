import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from treecut.graph import Graph, GraphError, parse_edge_list
from treecut.flow import (FlowNetwork, max_flow, path_decomposition,
                          route_from_cut)

from corpus import brute_min_cut, random_graph


class TestMaxFlow:
    def test_single_path(self):
        g = parse_edge_list("0 1 3\n1 2 2\n")
        sol, side = max_flow(FlowNetwork(g, {0: 5}, {2: 5}))
        assert sol.value == 2
        assert sol.check_conservation()

    def test_vertex_ids_cannot_meet_the_sentinels(self):
        """The flow network's source and sink are the nodes -1 and -2; a
        graph with those vertex ids once routed 10 units across a 4-cycle
        whose relabelled copy carries 3."""
        with pytest.raises(GraphError, match="-2 is not a nonnegative"):
            Graph([-2, -1, 0, 1],
                  [(-2, -1, 3), (-1, 0, 1), (0, 1, 3), (1, -2, 2)])
        g = Graph(range(4), [(0, 1, 3), (1, 2, 1), (2, 3, 3), (3, 0, 2)])
        sol, _ = max_flow(FlowNetwork(g, {2: 5}, {1: 5}))
        assert sol.value == 3

    def test_value_equals_brute_min_cut(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7), 0.6, 4)
            verts = list(g.vertices)
            sources = {verts[0]: rng.randint(1, 5)}
            sinks = {verts[-1]: rng.randint(1, 5)}
            if rng.random() < 0.5 and len(verts) > 3:
                sources[verts[1]] = rng.randint(1, 4)
                sinks[verts[-2]] = rng.randint(1, 4)
            net = FlowNetwork(g, sources, sinks)
            sol, side = max_flow(net)
            assert sol.value == brute_min_cut(net)
            assert sol.check_conservation()

    def test_min_cut_side_is_certified(self):
        """The returned side's augmented cut value equals the flow value."""
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 7), 0.6, 4)
            verts = list(g.vertices)
            sources = {verts[0]: rng.randint(1, 5)}
            sinks = {verts[-1]: rng.randint(1, 5)}
            sol, side = max_flow(FlowNetwork(g, sources, sinks))
            val = sum(Fraction(c) for v, c in sources.items() if v not in side)
            val += sum(Fraction(c) for v, c in sinks.items() if v in side)
            val += sum(Fraction(c) for u, v, c in g.edges
                       if (u in side) != (v in side))
            assert val == sol.value

    def test_edge_scale(self):
        g = parse_edge_list("0 1 1\n")
        sol, _ = max_flow(FlowNetwork(g, {0: 10}, {1: 10}, edge_scale=3))
        assert sol.value == 3
        assert sol.congestion() == 3

    def test_long_path_does_not_recurse(self):
        """The blocking-flow search is iterative: a 1,500-vertex path is
        deeper than Python's default recursion limit."""
        n = 1500
        g = Graph(range(n), [(i, i + 1, 2) for i in range(n - 1)])
        sol, side = max_flow(FlowNetwork(g, {0: 5}, {n - 1: 5}))
        assert sol.value == 2
        assert sol.flow == {(i, i + 1): 2 for i in range(n - 1)}
        assert side == frozenset({0})

    def test_fair_cut_is_fully_saturated(self):
        """Exact max flow saturates every edge of its own min cut
        source-to-sink: the returned side is a 1-fair cut, and hence
        alpha-fair for every alpha >= 1."""
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 7), 0.6, 4)
            verts = list(g.vertices)
            sources = {verts[0]: rng.randint(1, 6)}
            sinks = {verts[-1]: rng.randint(1, 6)}
            sol, side = max_flow(FlowNetwork(g, sources, sinks))
            def net(u, v):
                return sol.flow.get((u, v), 0) - sol.flow.get((v, u), 0)

            for u, v, c in g.edges:
                if u in side and v not in side:
                    assert net(u, v) == c
                elif v in side and u not in side:
                    assert net(v, u) == c


class TestDecomposition:
    def test_paths_reconstruct_value(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 7), 0.6, 4)
            verts = list(g.vertices)
            sources = {verts[i]: rng.randint(1, 4)
                       for i in range(len(verts) // 2)}
            sinks = {verts[-1]: rng.randint(2, 9)}
            sol, _ = max_flow(FlowNetwork(g, sources, sinks))
            paths = path_decomposition(sol)
            assert sum(a for _, a in paths) == sol.value
            for vs, a in paths:
                assert a > 0
                assert vs[0] in sources and vs[-1] in sinks
                for i in range(len(vs) - 1):
                    assert g.edge_capacity(vs[i], vs[i + 1])

    def test_decomposition_is_deterministic(self):
        g = parse_edge_list("0 1 2\n0 2 2\n1 3 2\n2 3 2\n")
        runs = []
        for _ in range(3):
            sol, _ = max_flow(FlowNetwork(g, {0: 4}, {3: 4}))
            runs.append(path_decomposition(sol))
        assert runs[0] == runs[1] == runs[2]


class TestRouteFromCut:
    def test_simple_route(self):
        g = parse_edge_list("0 1 2\n1 2 1\n2 3 1\n")
        res = route_from_cut(g, {1, 2, 3}, {2: 1, 3: 1}, congestion_cap=2)
        assert res.feasible
        assert res.flow.source_out == {1: 2}
        assert res.flow.value == 2
        assert res.flow.sink_in == {2: 1, 3: 1}

    def test_congestion_respects_cap(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 7), 0.8, 4)
            verts = list(g.vertices)
            d = frozenset(verts[1:])
            cut = [(u, v, c) for u, v, c in g.edges if (u in d) != (v in d)]
            if not cut:
                continue
            sinks = {v: 100 for v in d}
            res = route_from_cut(g, d, sinks, congestion_cap=2)
            if res.feasible:
                assert res.flow.congestion() <= 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_flow_conservation_property(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 8), 0.6, 4)
    verts = list(g.vertices)
    sources = {v: rng.randint(1, 3) for v in verts[:2]}
    sinks = {v: rng.randint(1, 3) for v in verts[-2:] if v not in sources}
    if not sinks:
        return
    sol, side = max_flow(FlowNetwork(g, sources, sinks))
    assert sol.check_conservation()
    assert sol.value <= sum(Fraction(c) for c in sources.values())
    assert sol.value <= sum(Fraction(c) for c in sinks.values())
    assert sol.congestion() <= 1
