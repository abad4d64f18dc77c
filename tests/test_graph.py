import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from treecut.graph import (ClusterView, Graph, GraphError, Measure, SizeError,
                           capacity, cut_capacity, cut_expansion,
                           min_ratio_cut, parse_edge_list, format_edge_list,
                           parse_measure, subdivide)

from corpus import (DENOMINATORS, cycle, k_n, random_graph,
                    reference_min_ratio)


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

    def test_vertices_are_nonnegative_ints(self):
        for bad in (-1, "a", 1.0, True, None):
            with pytest.raises(GraphError, match="nonnegative integer"):
                Graph([0, bad], [])

    def test_induced_matches_a_checked_graph(self):
        """G[s] equals the Graph built and checked from s and the edges
        inside it, field by field and adjacency order included."""
        rng = random.Random(73)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12),
                             rng.choice((0.2, 0.5, 0.9)), 4)
            s = [v for v in g.vertices if rng.random() < 0.6]
            want = Graph(sorted(s), [(u, v, c) for u, v, c in g.edges
                                     if u in s and v in s])
            got = g.induced(s)
            assert vars(got) == vars(want)
            assert [type(x) for x in vars(got).values()] == \
                [type(x) for x in vars(want).values()]

    def test_induced_rejects_unknown_vertices(self):
        with pytest.raises(GraphError, match=r"unknown vertices \[5, 7\]"):
            k_n(4).induced({0, 7, 5})

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
        assert min_ratio_cut(g, mu)[0] == 2

    def test_c4_expansion(self):
        g = cycle(4)
        mu = Measure.indicator(g.vertices)
        assert min_ratio_cut(g, mu)[0] == 1

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
        """The exact kernel agrees with a naive re-computation, side
        included."""
        rng = random.Random(seed)
        g = random_graph(rng, n, 0.5, 3)
        mu = Measure({v: rng.randint(0, 3) for v in g.vertices})
        ratio, side = min_ratio_cut(g, mu)
        assert (ratio, side) == reference_min_ratio(
            g, lambda s: min(mu.of(s), mu.total() - mu.of(s)))
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
        base = min_ratio_cut(g, mu_base)[0]
        mu_split = Measure({x: 2 * g.cap[e]
                            for x, e in sub.edge_of_split.items()})
        lifted = min_ratio_cut(sub.view(g.vertices).sub_in, mu_split)[0]
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
        assert v.g_tilde.edge_capacity(0, 1)
        x = self.sub.split(2, 3)
        assert v.g_tilde.edge_capacity(2, x)

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


def scaled_weights(rng):
    """Weights drawn as fractions over mixed DENOMINATORS on 0..9, each
    times their lcm."""
    scale = lcm(*DENOMINATORS)
    return {v: rng.randint(0, 9) * (scale // rng.choice(DENOMINATORS))
            for v in range(10)}


def test_measure_of_is_the_int_sum():
    """Equal in value and type to summing the weights one by one, over the
    empty set and vertices outside the measure too."""
    rng = random.Random(79)
    for _ in range(200):
        mu = Measure(scaled_weights(rng))
        vs = rng.sample(range(15), rng.randint(0, 15))
        got = mu.of(vs)
        assert got == sum(mu(v) for v in vs) and type(got) is int
    assert type(mu.total()) is int and type(mu(99)) is int


@pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(2), -1, 1.5, 2.0,
                               True, "1"])
def test_measure_refuses_other_weights(w):
    with pytest.raises(GraphError):
        Measure({0: 1, 3: w})


def test_measure_restrict_matches_a_checked_measure():
    rng = random.Random(83)
    for _ in range(100):
        mu = Measure(scaled_weights(rng))
        vs = rng.sample(range(15), rng.randint(0, 15))
        want = Measure({v: w for v, w in mu.weights.items() if v in vs})
        assert list(mu.restrict(vs).weights.items()) == \
            list(want.weights.items())
        assert vars(mu.restrict(vs)).keys() == vars(want).keys()


def test_parse_measure():
    """Rational weights come back times the lcm of their denominators."""
    m, scale = parse_measure("0 1/2\n3 2\n5 0\n6 1/3\n")
    assert scale == 6
    assert m.weights == {0: 3, 3: 12, 6: 2}
    assert m(1) == 0
    m, scale = parse_measure("# no weights\n")
    assert scale == 1 and m.weights == {}


@pytest.mark.parametrize("text, lineno", [
    ("0 1\n0 2\n", 2), ("0 1\n\n# note\n2 1/2\n0 0\n", 5),
    ("0 1\n1 -1/2\n", 2), ("0 1\n1 x\n", 2), ("0 1 2\n", 1)])
def test_parse_measure_refuses_a_line(text, lineno):
    """A second line for one vertex is refused, not read over the first."""
    with pytest.raises(GraphError, match="^line %d: " % lineno):
        parse_measure(text)
