import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecut.graph import (ClusterView, Graph, GraphError, Measure, SizeError,
                           capacity, cut_capacity, cut_expansion,
                           graph_expansion_exact, min_ratio_cut,
                           parse_edge_list, format_edge_list, parse_measure,
                           subdivide)

from corpus import cycle, k_n, random_graph


class TestGraphBasics:
    def test_parallel_edges_aggregate(self):
        g = Graph([0, 1], [(0, 1, 2), (1, 0, 3)])
        assert g.edges == ((0, 1, 5),)
        assert g.degree(0) == 5

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph([0], [(0, 0, 1)])

    def test_non_integral_capacity_rejected(self):
        """A fractional capacity was once truncated, so the tree was built
        for a different graph; integral values of any number type stay
        accepted."""
        import numpy as np
        for c in (Fraction(3, 2), 2.9, 0.5):
            with pytest.raises(GraphError, match=r"edge \(0, 1\)"):
                Graph(range(3), [(0, 1, c), (1, 2, 2)])
        g = Graph(range(3), [(0, 1, Fraction(4, 2)), (1, 2, np.int64(3))])
        assert g.cap == {(0, 1): 2, (1, 2): 3}
        assert all(type(c) is int for c in g.cap.values())

    def test_components(self):
        g = Graph(range(5), [(0, 1, 1), (3, 4, 1)])
        assert g.components() == [frozenset({0, 1}), frozenset({2}),
                                  frozenset({3, 4})]

    def test_capacity_between_sets(self):
        g = k_n(4)
        assert capacity(g, {0, 1}, {2, 3}) == 4
        assert cut_capacity(g, {0, 1}) == 4

    def test_parse_format_roundtrip(self):
        g = parse_edge_list("0 1 2\n1 2\n# comment\n\n0 2 3\n")
        assert g.edges == ((0, 1, 2), (0, 2, 3), (1, 2, 1))
        assert parse_edge_list(format_edge_list(g)).edges == g.edges


class TestExpansionOracles:
    """Exact expansion values frozen against hand computation."""

    def test_triangle_expansion(self):
        g = k_n(3)
        mu = Measure.indicator(g.vertices)
        assert graph_expansion_exact(g, mu) == 2

    def test_c4_expansion(self):
        g = cycle(4)
        mu = Measure.indicator(g.vertices)
        assert graph_expansion_exact(g, mu) == 1

    def test_k5_sparsest_cut(self):
        ratio, side = min_ratio_cut(k_n(5), Measure.indicator(range(5)))
        assert ratio == 3
        assert len(side) in (2, 3)

    def test_dumbbell_bridge(self):
        g = parse_edge_list("0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")
        mu = Measure.indicator(g.vertices)
        ratio, side = min_ratio_cut(g, mu)
        assert ratio == Fraction(1, 3)
        assert side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))

    def test_weighted_measure_changes_minimizer(self):
        g = cycle(4)
        mu = Measure({0: 10, 1: 1, 2: 1, 3: 1})
        ratio, side = min_ratio_cut(g, mu)
        assert ratio == Fraction(2, 3)

    def test_zero_measure_side_skipped(self):
        g = cycle(4)
        mu = Measure({0: 1, 1: 1})
        # every cut with both 0 and 1 on one side has denominator 0
        ratio, side = min_ratio_cut(g, mu)
        assert ratio == 2  # separate 0 from 1: cap 2 / min(1,1)

    def test_size_guard(self):
        g = cycle(20)
        with pytest.raises(SizeError):
            min_ratio_cut(g, Measure.indicator(g.vertices), threshold=18)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 9))
    def test_gray_code_matches_naive(self, seed, n):
        """The incremental enumerator agrees with a naive re-computation."""
        rng = random.Random(seed)
        g = random_graph(rng, n, 0.5, 3)
        mu = Measure({v: rng.randint(0, 3) for v in g.vertices})
        ratio, side = min_ratio_cut(g, mu)
        best = None
        verts = g.vertices
        for mask in range(1, 1 << n):
            s = {verts[i] for i in range(n) if (mask >> i) & 1}
            if len(s) == n:
                continue
            den = min(mu.of(s), mu.total() - mu.of(s))
            if den > 0:
                r = Fraction(cut_capacity(g, s)) / den
                if best is None or r < best:
                    best = r
        assert ratio == best
        if ratio is not None:
            assert cut_expansion(g, side, mu) == ratio


class TestSubdivision:
    def test_split_degrees(self):
        g = Graph([0, 1, 2], [(0, 1, 3), (1, 2, 2)])
        sub = subdivide(g)
        x01 = sub.split(0, 1)
        sub_g = sub.view(g.vertices).sub_in
        assert sub_g.degree(x01) == 6
        assert sub_g.degree(1) == 5
        assert sub.edge_of_split[x01] == (0, 1)

    def test_lift_cut_capacity_preserved(self):
        """Lifting a base cut preserves its capacity in the subdivision."""
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 8), 0.5, 3)
            if not g.edges:
                continue
            sub = subdivide(g)
            verts = g.vertices
            k = rng.randint(1, len(verts) - 1)
            side = frozenset(rng.sample(verts, k))
            lifted = sub.lift_cut(side)
            assert cut_capacity(sub.view(g.vertices).sub_in, lifted) \
                == cut_capacity(g, side)

    def test_expansion_halved_at_most(self):
        """Subdivision expansion is within [phi/2, phi] of the base, for the
        capacity-weighted split measure vs the base degree measure on K4."""
        g = k_n(4)
        sub = subdivide(g)
        mu_base = Measure({v: g.degree(v) for v in g.vertices})
        base = graph_expansion_exact(g, mu_base)
        mu_split = Measure({x: 2 * g.cap[e]
                            for x, e in sub.edge_of_split.items()})
        lifted = graph_expansion_exact(sub.view(g.vertices).sub_in, mu_split)
        assert base / 2 <= lifted <= base


class TestClusterView:
    def setup_method(self):
        self.g = parse_edge_list("0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")
        self.sub = subdivide(self.g)
        self.view = ClusterView(self.sub, [0, 1, 2])

    def test_edge_partition(self):
        assert set(self.view.inner_keys) == {(0, 1), (0, 2), (1, 2)}
        assert set(self.view.boundary_keys) == {(2, 3)}

    def test_views_have_expected_vertices(self):
        v = self.view
        assert set(v.graph_in.vertices) == {0, 1, 2}
        assert set(v.sub_in.vertices) == {0, 1, 2} | v.x_inner
        assert set(v.sprime.vertices) == {0, 1, 2} | v.x_inner | v.x_boundary
        assert set(v.g_tilde.vertices) == {0, 1, 2} | v.x_boundary

    def test_g_tilde_keeps_inner_edges_whole(self):
        v = self.view
        assert v.g_tilde.has_edge(0, 1)
        x = self.sub.split(2, 3)
        assert v.g_tilde.has_edge(2, x)

    def test_boundary_measure_weighting(self):
        # each boundary split weighs its edge's capacity
        sub = subdivide(parse_edge_list("0 1 2\n1 2 3\n"))
        m = ClusterView(sub, [1]).boundary_measure()
        assert m(sub.split(0, 1)) == 2 and m(sub.split(1, 2)) == 3
        assert m.total() == 5

    def test_split_measure(self):
        v = self.view
        m = v.split_measure([(0, 1), (1, 2)])
        assert m.total() == 2
        assert m(self.sub.split(0, 1)) == 1


def test_parse_measure():
    m = parse_measure("0 1/2\n3 2\n")
    assert m(0) == Fraction(1, 2)
    assert m(3) == 2
    assert m(1) == 0
