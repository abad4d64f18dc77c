import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecut.graph import Graph, Measure, cut_capacity, parse_edge_list
from treecut.flow import (FlowError, FlowNetwork, decompose, fair_cut,
                          max_flow, path_decomposition, route_from_cut)


def random_graph(rng, n, p=0.6, max_cap=4):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, rng.randint(1, max_cap)))
    return Graph(range(n), edges)


def brute_min_cut(g, sources, sinks):
    """Min over vertex cuts separating all sources from all sinks of the
    terminal-augmented cut value (exhaustive, for small n)."""
    verts = g.vertices
    n = len(verts)
    best = None
    for mask in range(1 << n):
        side = {verts[i] for i in range(n) if (mask >> i) & 1}
        val = Fraction(0)
        for v, c in sources.items():
            if v not in side:
                val += Fraction(c)
        for v, c in sinks.items():
            if v in side:
                val += Fraction(c)
        for u, v, c in g.edges:
            if (u in side) and (v not in side):
                val += c
            elif (v in side) and (u not in side):
                val += c
        if best is None or val < best:
            best = val
    return best


class TestMaxFlow:
    def test_single_path(self):
        g = parse_edge_list("0 1 3\n1 2 2\n")
        sol, side = max_flow(FlowNetwork(g, {0: 5}, {2: 5}))
        assert sol.value == 2
        assert sol.check_conservation()

    def test_value_equals_brute_min_cut(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7))
            verts = list(g.vertices)
            sources = {verts[0]: rng.randint(1, 5)}
            sinks = {verts[-1]: rng.randint(1, 5)}
            if rng.random() < 0.5 and len(verts) > 3:
                sources[verts[1]] = rng.randint(1, 4)
                sinks[verts[-2]] = rng.randint(1, 4)
            sol, side = max_flow(FlowNetwork(g, sources, sinks))
            assert sol.value == brute_min_cut(g, sources, sinks)
            assert sol.check_conservation()

    def test_min_cut_side_is_certified(self):
        """The returned side's augmented cut value equals the flow value."""
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 7))
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

    def test_fair_cut_is_fully_saturated(self):
        """Exact max flow saturates every min-cut edge source-to-sink, which
        is 1-fair and hence alpha-fair for every alpha >= 1."""
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 7))
            verts = list(g.vertices)
            sources = {verts[0]: rng.randint(1, 6)}
            sinks = {verts[-1]: rng.randint(1, 6)}
            side, sol = fair_cut(FlowNetwork(g, sources, sinks), alpha=2)
            for u, v, c in g.edges:
                if u in side and v not in side:
                    assert sol.net(u, v) == c
                elif v in side and u not in side:
                    assert sol.net(v, u) == c

    def test_fair_cut_rejects_alpha_below_one(self):
        g = parse_edge_list("0 1 1\n")
        with pytest.raises(FlowError):
            fair_cut(FlowNetwork(g, {0: 1}, {1: 1}), alpha=Fraction(1, 2))


class TestDecomposition:
    def test_paths_reconstruct_value(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 7))
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
                    assert g.has_edge(vs[i], vs[i + 1])

    def test_decomposition_is_deterministic(self):
        g = parse_edge_list("0 1 2\n0 2 2\n1 3 2\n2 3 2\n")
        runs = []
        for _ in range(3):
            sol, _ = max_flow(FlowNetwork(g, {0: 4}, {3: 4}))
            runs.append(path_decomposition(sol))
        assert runs[0] == runs[1] == runs[2]

    def test_transfer_matrix_marginals(self):
        g = parse_edge_list("0 1 2\n0 2 2\n1 3 2\n2 3 2\n")
        net = FlowNetwork(g, {0: 4}, {3: 4})
        sol, _ = max_flow(net)
        tm = decompose(sol, net)
        assert tm.row_sum(0) == 4
        assert sum(a for (_, t), a in tm.entries.items() if t == 3) == 4


class TestRouteFromCut:
    def test_simple_route(self):
        g = parse_edge_list("0 1 2\n1 2 1\n2 3 1\n")
        res = route_from_cut(g, {1, 2, 3}, {2: 1, 3: 1}, congestion_cap=2)
        assert res.feasible
        assert res.sources == {1: 2}
        assert sum(a for alloc in res.per_edge.values()
                   for _, a in alloc) == 2

    def test_per_edge_attribution_covers_capacity(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 8), p=0.7)
            verts = list(g.vertices)
            d = frozenset(verts[:len(verts) // 2 + 1])
            cut = [(u, v, c) for u, v, c in g.edges if (u in d) != (v in d)]
            if not cut:
                continue
            total = sum(c for _, _, c in cut)
            sinks = {v: total for v in d}
            res = route_from_cut(g, d, sinks, congestion_cap=total + 1)
            if not res.feasible:
                continue
            for (u, v, c) in cut:
                got = sum(a for _, a in res.per_edge[(min(u, v), max(u, v))])
                assert got == c

    def test_infeasibility_certificate(self):
        # sinks too small: certificate names the starved region
        g = parse_edge_list("0 1 4\n1 2 1\n")
        res = route_from_cut(g, {1, 2}, {2: 1}, congestion_cap=1)
        assert not res.feasible
        assert res.certificate is not None
        assert 1 in res.certificate

    def test_congestion_respects_cap(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 7), p=0.8)
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
    g = random_graph(rng, rng.randint(3, 8))
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
