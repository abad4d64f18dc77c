"""The integer Gray-code kernel behind min_ratio_cut and respects_exact,
checked against a plain Fraction subset loop."""

import random
from fractions import Fraction

import pytest

from treecut.demand import DemandState, respects_exact
from treecut.graph import Graph, Measure, SizeError, cut_capacity, min_ratio_cut

from corpus import DENOMINATORS, labelled_graph, random_measure


def reference_min_ratio(g, den_of):
    """First strict minimizer of cap/den over the cuts of g, recomputing
    every side from scratch in Fraction, in the kernel's Gray order (the
    first vertex stays in the side)."""
    verts = g.vertices
    n = len(verts)
    best, best_side = None, None
    for i in range(1 << (n - 1)):
        gray = i ^ (i >> 1)
        side = frozenset([verts[0]] + [verts[j] for j in range(1, n)
                                       if (gray >> (j - 1)) & 1])
        if len(side) == n:
            continue
        den = den_of(side)
        if den > 0:
            ratio = Fraction(cut_capacity(g, side)) / den
            if best is None or ratio < best:
                best, best_side = ratio, side
    return best, best_side


def random_state(rng, vertices, commodities=3):
    """A valid demand state with mixed denominators."""
    entries = {}
    for k in range(commodities):
        picks = rng.sample(vertices, min(len(vertices), rng.randint(2, 4)))
        vals = [Fraction(rng.randint(-5, 5), rng.choice(DENOMINATORS))
                for _ in picks[:-1]]
        vals.append(-sum(vals, Fraction(0)))
        for v, a in zip(picks, vals):
            entries[(v, k)] = entries.get((v, k), Fraction(0)) + a
    return DemandState(entries)


def graphs(seed, count=60):
    rng = random.Random(seed)
    for t in range(count):
        n = 1 + t % 10
        labels = sorted(rng.sample(range(40), n)) if t % 3 == 0 else None
        yield rng, labelled_graph(rng, n, labels)


class TestMinRatioCut:
    def test_matches_reference_side_included(self):
        for rng, g in graphs(1):
            mu = random_measure(rng, g.vertices)
            want = reference_min_ratio(
                g, lambda s: min(mu.of(s), mu.of(g.vertex_set() - s)))
            assert min_ratio_cut(g, mu) == want

    def test_all_zero_measure(self):
        for _, g in graphs(2, count=10):
            assert min_ratio_cut(g, Measure({})) == (None, None)
            assert min_ratio_cut(g, Measure({v: 0 for v in g.vertices})) \
                == (None, None)

    def test_threshold_is_inclusive(self):
        rng = random.Random(3)
        g = labelled_graph(rng, 10)
        mu = random_measure(rng, g.vertices)
        want = reference_min_ratio(
            g, lambda s: min(mu.of(s), mu.of(g.vertex_set() - s)))
        assert min_ratio_cut(g, mu, threshold=10) == want
        with pytest.raises(SizeError):
            min_ratio_cut(g, mu, threshold=9)

    def test_ties_keep_first_side_in_gray_order(self):
        # every cut of the 8-cycle into two arcs of four has ratio 2/4;
        # the walk meets the arc {0, 1, 2, 3} first
        g = Graph(range(8), [(i, (i + 1) % 8, 1) for i in range(8)])
        ratio, side = min_ratio_cut(g, Measure.indicator(range(8)))
        assert ratio == Fraction(1, 2)
        assert side == frozenset({0, 1, 2, 3})


class TestRespectsExact:
    def test_matches_reference_ratio(self):
        for rng, g in graphs(4):
            if g.vertex_count < 2:
                continue
            p = random_state(rng, list(g.vertices))
            want, _ = reference_min_ratio(g, p.dem_across)
            ratio, side = respects_exact(g, p)
            assert ratio == want
            if ratio is not None:
                assert Fraction(cut_capacity(g, side)) \
                    == ratio * p.dem_across(side)

    def test_mass_outside_the_graph(self):
        # the whole vertex set is no cut even when its demand is nonzero
        for rng, g in graphs(5, count=30):
            if g.vertex_count < 2:
                continue
            outside = max(g.vertices) + 1
            p = random_state(rng, list(g.vertices) + [outside])
            want, _ = reference_min_ratio(g, p.dem_across)
            ratio, side = respects_exact(g, p)
            assert ratio == want
            if ratio is not None:
                assert side != g.vertex_set()

    def test_all_zero_demand(self):
        for _, g in graphs(6, count=10):
            assert respects_exact(g, DemandState()) == (None, None)

    def test_threshold_is_inclusive(self):
        rng = random.Random(7)
        g = labelled_graph(rng, 10)
        p = random_state(rng, list(g.vertices))
        want, _ = reference_min_ratio(g, p.dem_across)
        assert respects_exact(g, p, threshold=10)[0] == want
        with pytest.raises(SizeError):
            respects_exact(g, p, threshold=9)

    def test_ties_keep_first_side_in_gray_order(self):
        g = Graph(range(8), [(i, (i + 1) % 8, 1) for i in range(8)])
        # one commodity from 0 to 4: every cut separating them has ratio
        # 2/1, and the walk starts at {0}
        assert respects_exact(g, DemandState({(0, 0): 1, (4, 0): -1})) \
            == (2, frozenset({0}))
        # commodities 0 -> 1 and 1 -> 7: {0, 7} and {0, 6, 7} both have
        # ratio 2/2; Gray order meets {0, 6, 7} first (binary order would
        # meet {0, 7} first)
        p = DemandState({(0, 0): 1, (1, 0): -1, (1, 1): 1, (7, 1): -1})
        assert respects_exact(g, p) == (1, frozenset({0, 6, 7}))
