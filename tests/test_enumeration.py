"""The chunked integer kernel behind min_ratio_cut and respects_exact,
checked against a plain Fraction subset loop and against the integer
Gray-code walk it replaced."""

import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from treecut.demand import DemandState, respects_exact
from treecut.graph import (Graph, Measure, SizeError, cut_capacity,
                           min_ratio_cut)

from corpus import (DENOMINATORS, cycle, labelled_graph, random_measure,
                    reference_min_ratio, ring_of_cliques)


def reference_gray_walk(g, weights=None, vectors=None):
    """The integer Gray-code walk that min_ratio_cut and respects_exact ran
    on before the chunked kernel: one vertex toggles per step, and the cut
    capacity and the scaled masses are updated incrementally.  Arguments
    as the kernel's: `weights` or `vectors` aligned with g.vertices."""
    n = g.vertex_count
    if n < 2:
        return None, None
    verts = g.vertices
    if vectors is None:
        scale = lcm(*(w.denominator for w in weights))
        plus = [w.numerator * (scale // w.denominator) for w in weights]
        minus = [-w for w in plus]
        total = sum(plus)
    else:
        scale = lcm(*(a.denominator for vec in vectors for a in vec.values()))
        commodity = {}
        plus = []
        for vec in vectors:
            plus.append(tuple((commodity.setdefault(k, len(commodity)),
                               a.numerator * (scale // a.denominator))
                              for k, a in vec.items()))
        minus = [tuple((k, -a) for k, a in vec) for vec in plus]
        total = None
        sums = [0] * len(commodity)
    idx = {v: i for i, v in enumerate(verts)}
    adjz = [[(idx[u], c) for u, c in g.adj[v]] for v in verts]
    deg = [g.degree(v) for v in verts]
    in_side = [False] * n
    cap = s = absum = 0
    best_cap, best_den, best_gray = 1, 0, 0
    full = (1 << (n - 1)) - 1
    for i in range(full + 1):
        j = (i & -i).bit_length()
        inside = 0
        for k, c in adjz[j]:
            if in_side[k]:
                inside += c
        if in_side[j]:
            in_side[j] = False
            cap += inside + inside - deg[j]
            delta = minus[j]
        else:
            in_side[j] = True
            cap += deg[j] - inside - inside
            delta = plus[j]
        if total is None:
            for k, a in delta:
                old = sums[k]
                sums[k] = new = old + a
                absum += abs(new) - abs(old)
            den = absum
        else:
            s += delta
            den = s if s + s <= total else total - s
        if cap * best_den < best_cap * den:
            gray = i ^ (i >> 1)
            if gray != full:
                best_cap, best_den, best_gray = cap, den, gray
    if not best_den:
        return None, None
    side = frozenset(v for j, v in enumerate(verts)
                     if j == 0 or (best_gray >> (j - 1)) & 1)
    return Fraction(best_cap * scale, best_den), side


def walk_min_ratio(g, mu):
    return reference_gray_walk(g, weights=[mu(v) for v in g.vertices])


def walk_respects(g, p):
    return reference_gray_walk(g, vectors=[
        {k: a for (u, k), a in p.entries.items() if u == v}
        for v in g.vertices])


def random_state(rng, vertices, commodities=3, dens=DENOMINATORS):
    """A valid demand state with mixed denominators."""
    entries = {}
    for k in range(commodities):
        picks = rng.sample(vertices, min(len(vertices), rng.randint(2, 4)))
        vals = [Fraction(rng.randint(-5, 5), rng.choice(dens))
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


# vertex counts of the walk comparison: every size the build enumerates,
# more of them where the kernel's one table ends (13 vertices) and its
# blocks begin (14)
SIZES = [n for n in range(2, 13) for _ in range(4)] + [13, 13, 14, 14] \
    + list(range(15, 19))


def walk_graphs(seed):
    rng = random.Random(seed)
    for n in SIZES:
        labels = sorted(rng.sample(range(3 * n), n)) if n % 2 else None
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
        g = cycle(8)
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
        g = cycle(8)
        # one commodity from 0 to 4: every cut separating them has ratio
        # 2/1, and the walk starts at {0}
        assert respects_exact(g, DemandState({(0, 0): 1, (4, 0): -1})) \
            == (2, frozenset({0}))
        # commodities 0 -> 1 and 1 -> 7: {0, 7} and {0, 6, 7} both have
        # ratio 2/2; Gray order meets {0, 6, 7} first (binary order would
        # meet {0, 7} first)
        p = DemandState({(0, 0): 1, (1, 0): -1, (1, 1): 1, (7, 1): -1})
        assert respects_exact(g, p) == (1, frozenset({0, 6, 7}))


class TestAgainstGrayWalk:
    """(ratio, side) equal to the replaced walk's, side and ties included,
    from 2 to 18 vertices."""

    def test_min_ratio_cut(self):
        for rng, g in walk_graphs(11):
            mu = random_measure(rng, g.vertices)
            assert min_ratio_cut(g, mu) == walk_min_ratio(g, mu)

    def test_respects_exact(self):
        for rng, g in walk_graphs(12):
            p = random_state(rng, list(g.vertices), rng.randint(1, 4))
            assert respects_exact(g, p) == walk_respects(g, p)

    def test_mass_outside_the_graph(self):
        for rng, g in walk_graphs(13):
            outside = max(g.vertices) + 1
            p = random_state(rng, list(g.vertices) + [outside], 2)
            assert respects_exact(g, p) == walk_respects(g, p)

    def test_every_side_ties(self):
        # no edges: every cut has capacity 0, in every block
        g = Graph(range(18), [])
        mu = Measure.indicator(g.vertices)
        assert min_ratio_cut(g, mu) == walk_min_ratio(g, mu)
        p = random_state(random.Random(15), list(g.vertices), 3)
        assert respects_exact(g, p) == walk_respects(g, p)

    @pytest.mark.parametrize("n", [8, 13, 14, 16])
    def test_all_tie_cycles(self, n):
        # every arc of half the cycle ties, in one table and across blocks
        g = cycle(n)
        mu = Measure.indicator(g.vertices)
        assert min_ratio_cut(g, mu) == walk_min_ratio(g, mu)
        # one unit commodity from each vertex to the next: every side of
        # two arcs ties
        p = DemandState({key: a for v in range(n) for key, a in
                         (((v, v), 1), (((v + 1) % n, v), -1))})
        assert respects_exact(g, p) == walk_respects(g, p)

    def test_zero_measure_sides(self):
        # weight on two far vertices only: most sides have den 0
        for n in (5, 13, 14, 15):
            g = ring_of_cliques(n // 3 + 1, 3).induced(range(n))
            mu = Measure({0: 3, n - 1: 2})     # 1 and 2/3, times 3
            assert min_ratio_cut(g, mu) == walk_min_ratio(g, mu)

    @pytest.mark.parametrize("big", [2 ** 61, 2 ** 70])
    def test_past_int64(self, big):
        """Capacities near or past int64, and weights drawn over
        denominators whose lcm is past 2^62, times that lcm: the kernel
        runs on Python ints."""
        rng = random.Random(big % 1000)
        dens = (2 ** 31 - 1, 2 ** 31 + 11, 3, 1)
        for n in (3, 9, 14):
            g = labelled_graph(rng, n)
            g = Graph(g.vertices, [(u, v, c * big) for u, v, c in g.edges])
            mu = Measure({v: rng.randint(0, 4) * (lcm(*dens)
                                                  // rng.choice(dens))
                          for v in g.vertices})
            assert min_ratio_cut(g, mu) == walk_min_ratio(g, mu)
            p = random_state(rng, list(g.vertices), 3, dens)
            assert respects_exact(g, p) == walk_respects(g, p)


def test_memory_stays_blocked():
    """An 18-vertex enumeration holds one block of sides at a time: its
    peak allocation stays far below a table of all 2^17 sides."""
    g = ring_of_cliques(6, 3)
    mu = Measure.indicator(g.vertices)
    p = random_state(random.Random(14), list(g.vertices), 3)
    for run in (lambda: min_ratio_cut(g, mu), lambda: respects_exact(g, p)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
