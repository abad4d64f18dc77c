"""The integer sweep backend, the integer Dinic solver, the integer
demand kernels and their one-denominator representation, the one-pass
state sum and the batched verify kernel, checked against plain references
of the same algorithms."""

import importlib.util
import json
import random
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from treecut.config import DEFAULT, Config
from treecut.demand import (DemandError, DemandMatrix, DemandState,
                            from_matrix, leaf_init, sum_states, update)
from treecut.flow import S_NODE, T_NODE, FlowNetwork, max_flow
from treecut.graph import (Graph, Measure, cut_capacity, cut_expansion,
                           subdivide)
from treecut.oracle import _sweep_best, _sweep_orders
from treecut.tree import (_row_chunks, build_basic, build_improved,
                          mincut_in_tree)
from treecut.util import frac_str
from treecut.verify import verify_quality

from corpus import (DENOMINATORS, brute_tree_mincut, cycle, labelled_graph,
                    path, random_measure, reference_add, reference_leaf_init,
                    reference_spread, reference_sum, reference_update,
                    restrict, ring_of_cliques)

ROOT = Path(__file__).resolve().parent.parent


def reference_sweep(g, mu):
    """First strict minimizer of cap/den over the prefix cuts of both
    sweep orderings, all in Fraction; no cut has a positive denominator
    when fewer than two vertices carry mass."""
    mu_total = mu.of(g.vertices)
    best, best_side = None, None
    if sum(1 for v in g.vertices if mu(v)) < 2:
        return best, best_side
    for order in _sweep_orders(g, mu):
        for k in range(1, len(order)):
            side = frozenset(order[:k])
            den = min(mu.of(side), mu_total - mu.of(side))
            if den > 0:
                cap = sum(c for v in side for u, c in g.adj[v]
                          if u not in side)
                ratio = Fraction(cap) / den
                if best is None or ratio < best:
                    best, best_side = ratio, side
    return best, best_side


class ReferenceDinic:
    """Recursive blocking-flow Dinic in Fraction, arcs [to, cap, flow]."""

    def __init__(self):
        self.head = {}
        self.arcs = []

    def add_arc(self, u, v, cap):
        for x in (u, v):
            self.head.setdefault(x, [])
        self.head[u].append(len(self.arcs))
        self.arcs.append([v, Fraction(cap), Fraction(0)])
        self.head[v].append(len(self.arcs))
        self.arcs.append([u, Fraction(0), Fraction(0)])

    def residual(self, i):
        return self.arcs[i][1] - self.arcs[i][2]

    def reach(self, s):
        seen = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for i in self.head[v]:
                to = self.arcs[i][0]
                if self.residual(i) > 0 and to not in seen:
                    seen[to] = seen[v] + 1
                    q.append(to)
        return seen

    def dfs(self, v, t, pushed, level, it):
        if v == t:
            return pushed
        while it[v] < len(self.head[v]):
            i = self.head[v][it[v]]
            to = self.arcs[i][0]
            if self.residual(i) > 0 and level.get(to, -1) == level[v] + 1:
                got = self.dfs(to, t, min(pushed, self.residual(i)), level,
                               it)
                if got > 0:
                    self.arcs[i][2] += got
                    self.arcs[i ^ 1][2] -= got
                    return got
            it[v] += 1
        return Fraction(0)

    def run(self, s, t):
        total = Fraction(0)
        while True:
            level = self.reach(s)
            if t not in level:
                return total
            it = {v: 0 for v in self.head}
            while True:
                pushed = self.dfs(s, t, Fraction(10) ** 30, level, it)
                if pushed == 0:
                    break
                total += pushed


def reference_max_flow(net):
    """(value, flow, source_out, sink_in, min-cut side) in Fraction."""
    d = ReferenceDinic()
    for v in net.graph.vertices:
        d.head.setdefault(v, [])
    pairs = {}
    for u, v, c in net.graph.edges:
        i = len(d.arcs)
        d.add_arc(u, v, c * net.edge_scale)
        pairs[(u, v)] = (i, len(d.arcs))
        d.add_arc(v, u, c * net.edge_scale)
    src = {}
    for v in sorted(net.source_caps):
        src[v] = len(d.arcs)
        d.add_arc(S_NODE, v, net.source_caps[v])
    snk = {}
    for v in sorted(net.sink_caps):
        snk[v] = len(d.arcs)
        d.add_arc(v, T_NODE, net.sink_caps[v])
    d.head.setdefault(S_NODE, [])
    d.head.setdefault(T_NODE, [])
    value = d.run(S_NODE, T_NODE)
    flow = {}
    for (u, v), (i, j) in pairs.items():
        f = d.arcs[i][2] - d.arcs[j][2]
        if f > 0:
            flow[(u, v)] = f
        elif f < 0:
            flow[(v, u)] = -f
    source_out = {v: d.arcs[i][2] for v, i in src.items() if d.arcs[i][2]}
    sink_in = {v: d.arcs[i][2] for v, i in snk.items() if d.arcs[i][2]}
    side = d.reach(S_NODE)
    return (value, flow, source_out, sink_in,
            frozenset(v for v in net.graph.vertices if v in side))


def graphs(seed, count=60):
    rng = random.Random(seed)
    for t in range(count):
        n = 2 + t % 14
        labels = sorted(rng.sample(range(60), n)) if t % 3 == 0 else None
        yield rng, labelled_graph(rng, n, labels)


class TestSweep:
    def test_matches_reference(self):
        for rng, g in graphs(1):
            mu = random_measure(rng, g.vertices)
            got = _sweep_best(g, mu)
            assert got == reference_sweep(g, mu)
            assert got[0] is None or type(got[0]) is Fraction

    def test_each_denominator(self):
        """Weights over one denominator each time, times the lcm of all."""
        scale = lcm(*DENOMINATORS)
        for den in DENOMINATORS:
            for rng, g in graphs(2 + den, count=20):
                mu = Measure({v: rng.randint(0, 5) * (scale // den)
                              for v in g.vertices})
                assert _sweep_best(g, mu) == reference_sweep(g, mu)

    def test_non_contiguous_labels(self):
        rng = random.Random(3)
        for n in range(2, 14):
            labels = sorted(rng.sample(range(5, 500), n))
            g = labelled_graph(rng, n, labels)
            mu = random_measure(rng, labels)
            assert _sweep_best(g, mu) == reference_sweep(g, mu)

    def test_all_zero_measure(self):
        for _, g in graphs(4, count=10):
            assert _sweep_best(g, Measure({})) == (None, None)
            assert _sweep_best(g, Measure({v: 0 for v in g.vertices})) \
                == (None, None)

    def test_ties_keep_the_first_cut(self):
        # on a uniform cycle many prefix cuts tie; the first one met wins
        g = cycle(10)
        mu = Measure.indicator(range(10))
        assert _sweep_best(g, mu) == reference_sweep(g, mu)
        assert _sweep_best(g, mu)[0] == Fraction(2, 5)

    def test_no_cut_exactly_below_two_massed_vertices(self):
        """The prefix ending just before the later of two massed vertices
        holds the earlier one, so the two orderings alone find a cut
        whenever two vertices carry mass."""
        for rng, g in graphs(5):
            verts = list(g.vertices)
            for k in (0, 1, 2, len(verts)):
                massed = rng.sample(verts, k)
                mu = Measure({v: rng.randint(1, 5)
                              * (lcm(*DENOMINATORS)
                                 // rng.choice(DENOMINATORS))
                              for v in massed})
                ratio, side = _sweep_best(g, mu)
                if k < 2:
                    assert (ratio, side) == (None, None)
                else:
                    assert type(ratio) is Fraction
                    assert ratio == cut_expansion(g, side, mu)


def random_network(rng, g, edge_scale):
    verts = list(g.vertices)
    sources = {v: Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))
               for v in rng.sample(verts, rng.randint(1, len(verts)))}
    sinks = {v: Fraction(rng.randint(0, 9), rng.choice(DENOMINATORS))
             for v in rng.sample(verts, rng.randint(1, len(verts)))}
    return FlowNetwork(g, sources, sinks, edge_scale)


def solved(net):
    sol, side = max_flow(net)
    amounts = [sol.value, *sol.flow.values(), *sol.source_out.values(),
               *sol.sink_in.values()]
    assert all(type(a) is Fraction for a in amounts)
    return sol.value, sol.flow, sol.source_out, sol.sink_in, side


class TestDinic:
    def test_matches_reference(self):
        for scale in (1, Fraction(1, 64), Fraction(3, 2)):
            for rng, g in graphs(5, count=40):
                net = random_network(rng, g, scale)
                assert solved(net) == reference_max_flow(net)

    def test_flow_order_matches_reference(self):
        # the augmenting paths, not only the flow value, are the same
        for rng, g in graphs(6, count=40):
            net = random_network(rng, g, Fraction(3, 2))
            got, want = solved(net), reference_max_flow(net)
            assert list(got[1].items()) == list(want[1].items())

    def test_infeasible_network(self):
        # the sinks take less than the sources offer: the flow stops at the
        # sink caps and the cut side holds every vertex
        g = Graph(range(4), [(0, 1, 2), (1, 2, 2), (2, 3, 2)])
        net = FlowNetwork(g, {0: 3, 1: Fraction(1, 3)},
                          {2: Fraction(1, 7), 3: Fraction(5, 384)},
                          edge_scale=Fraction(3, 2))
        got = solved(net)
        assert got == reference_max_flow(net)
        assert got[0] == Fraction(1, 7) + Fraction(5, 384)
        assert got[4] == frozenset(range(4))

    def test_edge_scale_bounds_the_flow(self):
        g = Graph(range(3), [(0, 1, 3), (1, 2, 5)])
        net = FlowNetwork(g, {0: 10}, {2: Fraction(21, 2)},
                          edge_scale=Fraction(1, 64))
        got = solved(net)
        assert got == reference_max_flow(net)
        assert got[0] == Fraction(3, 64)
        assert got[4] == frozenset({0})


# mixed denominators with large lcms, and denominators that share no
# factor with DENOMINATORS
WIDE_DENOMINATORS = DENOMINATORS + (384 * 7 * 11, 11 * 13, 2 ** 20, 1009)
FOREIGN_DENOMINATORS = (5, 17, 19 * 23, 10007)


def random_state(rng, verts, dens=DENOMINATORS):
    return DemandState({(v, k): Fraction(rng.randint(-9, 9), rng.choice(dens))
                        for v in verts for k in range(3)
                        if rng.random() < 0.5})


def random_entries(rng, verts, sources, dens=DENOMINATORS):
    """Matrix entries from one to ten random draws, summed per pair."""
    m = {}
    for _ in range(rng.randint(1, 10)):
        u = rng.choice(sources)
        v = rng.choice([w for w in verts if w != u])
        m[(u, v)] = m.get((u, v), 0) + Fraction(rng.randint(1, 9),
                                                rng.choice(dens))
    return m


def random_matrix(rng, verts, sources, dens=DENOMINATORS):
    return DemandMatrix(random_entries(rng, verts, sources, dens))


def assert_same_entries(got, want):
    """Equal entries in the same insertion order, every one a Fraction."""
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(a) is Fraction for a in got.entries.values())


def update_cases(seed, state_dens, matrix_dens, count=200):
    rng = random.Random(seed)
    seen = 0
    while seen < count:
        verts = sorted(rng.sample(range(40), rng.randint(2, 8)))
        p = random_state(rng, verts, state_dens)
        if p.is_zero():
            continue
        seen += 1
        yield p, random_matrix(rng, verts, sorted({v for v, _ in p.entries}),
                               matrix_dens)


class TestUpdate:
    def test_matches_reference(self):
        for p, q in update_cases(8, DENOMINATORS, DENOMINATORS):
            assert_same_entries(update(p, q), reference_update(p, q))

    def test_large_mixed_denominators(self):
        for p, q in update_cases(11, WIDE_DENOMINATORS, WIDE_DENOMINATORS):
            assert_same_entries(update(p, q), reference_update(p, q))

    def test_matrix_denominators_unrelated_to_state(self):
        for p, q in update_cases(12, WIDE_DENOMINATORS, FOREIGN_DENOMINATORS):
            assert_same_entries(update(p, q), reference_update(p, q))

    def test_repeated_updates_match_reference(self):
        # denominators compound over a chain of moves, as in a replay
        rng = random.Random(13)
        for _ in range(20):
            verts = list(range(6))
            p = random_state(rng, verts, WIDE_DENOMINATORS)
            want = p
            for _ in range(4):
                if p.is_zero():
                    break
                sources = sorted({v for v, _ in p.entries})
                q = random_matrix(rng, verts, sources, FOREIGN_DENOMINATORS)
                p, want = update(p, q), reference_update(want, q)
                assert_same_entries(p, want)

    def test_spread_matches_reference(self):
        rng = random.Random(9)
        for _ in range(60):
            verts = list(range(rng.randint(2, 8)))
            p = random_state(rng, verts)
            targets = rng.sample(verts, rng.randint(1, len(verts)))
            w = {v: Fraction(rng.randint(1, 5), rng.choice(DENOMINATORS))
                 for v in targets}
            q = DemandMatrix.spread(p.loads(), targets, w.get)
            assert update(p, q).entries == reference_update(p, q).entries

    def test_zero_load_source_rejected(self):
        rng = random.Random(10)
        for _ in range(40):
            verts = list(range(6))
            p = random_state(rng, verts[:3])
            m = random_entries(rng, verts, verts)
            m[(4, 5)] = m.get((4, 5), 0) + Fraction(1, 7)
            q = DemandMatrix(m)
            for apply in (update, reference_update):
                with pytest.raises(DemandError):
                    apply(p, q)


def random_spread(rng):
    """(mass, targets, weight_of): masses on sources in and out of the
    targets, some of them zero, and target weights some of which are 0
    (or unit weights)."""
    verts = sorted(rng.sample(range(30), rng.randint(2, 9)))
    targets = rng.sample(verts, rng.randint(1, len(verts)))
    mass = {u: Fraction(rng.choice((0, 1, 2, 5, 9)),
                        rng.choice(WIDE_DENOMINATORS))
            for u in rng.sample(verts, rng.randint(1, len(verts)))}
    if rng.random() < 0.2:
        return mass, targets, lambda v: 1
    w = {v: Fraction(rng.choice((0, 1, 3, 8)), rng.choice(WIDE_DENOMINATORS))
         for v in targets}
    if not any(w.values()):
        w[targets[0]] = Fraction(1, 7)
    return mass, targets, w.get


class TestSpread:
    def test_matches_reference(self):
        rng = random.Random(14)
        for _ in range(300):
            mass, targets, weight_of = random_spread(rng)
            assert_same_entries(
                DemandMatrix.spread(mass, targets, weight_of),
                reference_spread(mass, targets, weight_of))

    def test_sources_outside_targets(self):
        rng = random.Random(15)
        for _ in range(60):
            mass, targets, weight_of = random_spread(rng)
            outside = {u + 100: a for u, a in mass.items()}
            got = DemandMatrix.spread(outside, targets, weight_of)
            assert_same_entries(got, reference_spread(outside, targets,
                                                      weight_of))
            assert {u for u, _ in got.entries} <= set(outside)

    def test_int_masses_and_weights(self):
        got = DemandMatrix.spread({0: 3, 4: 0, 5: 2}, [0, 1, 2, 3],
                                  lambda v: v)
        assert_same_entries(got, reference_spread({0: 3, 4: 0, 5: 2},
                                                  [0, 1, 2, 3], lambda v: v))

    def test_zero_total_weight_rejected(self):
        for spread in (DemandMatrix.spread, reference_spread):
            with pytest.raises(DemandError):
                spread({0: Fraction(1, 3)}, [1, 2], lambda v: 0)

    def test_negative_mass_rejected(self):
        for spread in (DemandMatrix.spread, reference_spread):
            with pytest.raises(DemandError):
                spread({0: Fraction(-1, 3)}, [1, 2], lambda v: 1)


def cancelling_states(rng):
    """(states, chained sum, cancelled keys): random states mixed with
    negated parts of the running sum, so that keys cancel to zero and later
    states bring some of them back."""
    verts = list(range(rng.randint(2, 6)))
    states, total, cancelled = [], DemandState(), 0
    for _ in range(rng.randint(1, 8)):
        if total.entries and rng.random() < 0.4:
            keys = rng.sample(sorted(total.entries),
                              rng.randint(1, len(total.entries)))
            st = DemandState({k: -total.entries[k] for k in keys})
            cancelled += len(keys)
        else:
            st = random_state(rng, verts, WIDE_DENOMINATORS)
        states.append(st)
        total = reference_add(total, st)
    return states, total, cancelled


class TestStateSum:
    def test_matches_chained_add(self):
        rng = random.Random(16)
        cancelled = 0
        for _ in range(300):
            states, want, c = cancelling_states(rng)
            assert_same_entries(sum_states(iter(states)), want)
            cancelled += c
        assert cancelled > 100

    def test_add_is_the_two_state_sum(self):
        rng = random.Random(17)
        for _ in range(100):
            verts = list(range(5))
            p = random_state(rng, verts)
            q = random_state(rng, verts) if rng.random() < 0.5 \
                else p.scaled(-1)
            assert_same_entries(p + q, reference_add(p, q))

    def test_reentered_key_moves_to_the_end(self):
        a = DemandState({(0, 0): 1, (1, 0): -1})
        got = sum_states([a, DemandState({(0, 0): -1}),
                          DemandState({(2, 0): 2}), DemandState({(0, 0): 5})])
        assert list(got.entries) == [(1, 0), (2, 0), (0, 0)]
        assert sum_states([a, a.scaled(-1)]).is_zero()
        assert sum_states([]).is_zero()


# numerators past int64, for the representation checks below
BIG = 2 ** 70
numerators = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
masses = st.builds(Fraction, numerators,
                   st.sampled_from(WIDE_DENOMINATORS + FOREIGN_DENOMINATORS))
amounts = st.builds(Fraction, st.integers(1, BIG),
                    st.sampled_from(WIDE_DENOMINATORS + FOREIGN_DENOMINATORS))
state_entries = st.dictionaries(st.tuples(st.integers(0, 5),
                                          st.integers(0, 2)), masses,
                                max_size=12)


def assert_reduced(x):
    """x holds its entries as nonzero int numerators over one positive
    denominator they share no factor with, and `entries` is nums / den in
    the same order."""
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.nums.values()) == 1
    assert all(type(n) is int and n for n in x.nums.values())
    assert list(x.entries.items()) == [(key, Fraction(n, x.den))
                                       for key, n in x.nums.items()]


def assert_kernel(got, want):
    """got is reduced and holds the Fractions of the dict want, in want's
    order."""
    assert_reduced(got)
    assert list(got.entries.items()) == list(want.items())


def nonzero(fracs):
    return {key: a for key, a in fracs.items() if a}


def fraction_sub(p, q):
    out = p.entries
    for key, a in q.entries.items():
        out[key] = out.get(key, Fraction(0)) - a
    return nonzero(out)


def fraction_from_matrix(q):
    out = {}
    for (u, v), a in q.entries.items():
        out[(u, u)] = out.get((u, u), Fraction(0)) + a
        out[(v, u)] = out.get((v, u), Fraction(0)) - a
    return nonzero(out)


def fraction_sums(p, group, side=None):
    """{group(vertex, commodity): sum} over p's entries at side, in
    first-seen order."""
    out = {}
    for (v, k), a in p.entries.items():
        if side is None or v in side:
            out[group(v, k)] = out.get(group(v, k), Fraction(0)) + a
    return out


class TestRepresentation:
    """Every kernel's result is reduced over one denominator and holds the
    entries of its Fraction reference, in the reference's order."""

    @settings(max_examples=150, deadline=None)
    @given(state_entries, state_entries, masses, st.sets(st.integers(0, 5)))
    def test_state_kernels(self, a, b, factor, side):
        p, q = DemandState(a), DemandState(b)
        assert_kernel(p, nonzero(a))
        assert_kernel(p - q, fraction_sub(p, q))
        assert_kernel(p + q, reference_add(p, q).entries)
        # p's keys cancel, then come back at the end
        chain = [p, q, p.scaled(-1), p]
        assert_kernel(sum_states(chain), reference_sum(chain).entries)
        assert_kernel(p.scaled(factor),
                      nonzero({k: x * factor for k, x in p.entries.items()}))
        loads = fraction_sums(DemandState({k: abs(x) for k, x in
                                           p.entries.items()}),
                              lambda v, _: v)
        assert list(p.loads().items()) == list(loads.items())
        assert p.total_load() == sum(loads.values(), Fraction(0))
        totals = fraction_sums(p, lambda _, k: k)
        assert p.is_valid() == (not any(totals.values()))
        assert p.support_vertices() == {v for v, _ in p.entries}
        assert p.dem_across(side) == sum(
            (abs(x) for x in fraction_sums(p, lambda _, k: k, side).values()),
            Fraction(0))

    @settings(max_examples=150, deadline=None)
    @given(state_entries, st.data())
    def test_matrix_kernels(self, a, data):
        p = DemandState(a)
        if p.is_zero():
            return
        sources = sorted({v for v, _ in p.nums})
        pairs = st.tuples(st.sampled_from(sources), st.integers(0, 6)).filter(
            lambda uv: uv[0] != uv[1])
        m = data.draw(st.dictionaries(pairs, amounts, min_size=1,
                                      max_size=6))
        q = DemandMatrix(m)
        assert_kernel(q, m)
        assert_kernel(update(p, q), reference_update(p, q).entries)
        assert_kernel(from_matrix(q), fraction_from_matrix(q))
        side = frozenset(sources[::2])
        assert q.dem_across(side) == sum(
            (x for (u, v), x in m.items() if (u in side) != (v in side)),
            Fraction(0))

    def test_spread(self):
        rng = random.Random(18)
        for _ in range(200):
            mass, targets, weight_of = random_spread(rng)
            if rng.random() < 0.5:
                mass = {u: a * BIG for u, a in mass.items()}
            assert_kernel(DemandMatrix.spread(mass, targets, weight_of),
                          reference_spread(mass, targets, weight_of).entries)

    def test_leaf_init(self):
        rng = random.Random(19)
        filled = 0
        for _ in range(60):
            n = rng.randint(2, 7)
            g = labelled_graph(rng, n)
            sub = subdivide(g)
            p = DemandState({(v, k): Fraction(rng.randint(-BIG, BIG),
                                              rng.choice(WIDE_DENOMINATORS))
                             for v in g.vertices for k in range(3)
                             if rng.random() < 0.5})
            # shrink every vertex's load to at most its degree
            loads = p.loads()
            worst = max((loads.get(v, 0) / g.degree(v) for v in g.vertices
                         if g.degree(v)), default=Fraction(0))
            if worst > 1:
                p = p.scaled(1 / worst)
            p = restrict(p, (v for v in g.vertices if g.degree(v)))
            got, want = leaf_init(p, sub), reference_leaf_init(p, sub)
            assert list(got) == list(want)
            for v in got:
                assert_kernel(got[v], want[v].entries)
                filled += not got[v].is_zero()
        assert filled > 50

    def test_empty_state(self):
        p = DemandState({(0, 0): Fraction(3, 7), (1, 0): Fraction(-3, 7)})
        for empty in (DemandState(), DemandState({(0, 0): 0}), p - p,
                      p.scaled(0), sum_states([]),
                      sum_states([p, p.scaled(-1)]),
                      restrict(p, []), DemandMatrix(),
                      DemandMatrix.spread({0: 0}, [1, 2], lambda v: 1),
                      from_matrix(DemandMatrix())):
            assert_reduced(empty)
            assert empty.den == 1 and empty.nums == {}

    def test_cancelled_key_reenters(self):
        a = DemandState({(0, 0): Fraction(1, 6), (1, 0): Fraction(-1, 6)})
        chain = [a, DemandState({(0, 0): Fraction(-1, 6)}),
                 DemandState({(2, 0): Fraction(1, 4)}),
                 DemandState({(0, 0): Fraction(5, 4)})]
        got = sum_states(chain)
        assert_kernel(got, reference_sum(chain).entries)
        assert list(got.entries) == [(1, 0), (2, 0), (0, 0)]
        assert (got.den, got.nums) == (12, {(1, 0): -2, (2, 0): 3,
                                            (0, 0): 15})


def reference_mincut(tree):
    """query(b): the tree min-cut of one side b, by the per-cut two-state
    DP over the internal nodes in post-order."""
    plan = []

    def add(node):
        leaves, inner = [], []
        for c in node.children:
            if c.is_leaf:
                leaves.append((next(iter(c.members)), c.weight))
            else:
                inner.append((add(c), c.weight))
        plan.append((leaves, inner))
        return len(plan) - 1

    add(tree.root)

    def query(b):
        cost = []
        for leaves, inner in plan:
            cost_in = cost_out = 0
            for v, w in leaves:
                if v in b:
                    cost_out += w
                else:
                    cost_in += w
            for i, w in inner:
                ci, co = cost[i]
                cost_in += min(ci, co + w)
                cost_out += min(co, ci + w)
            cost.append((cost_in, cost_out))
        return min(cost[-1])

    return query


def reference_verify(g, t, mode=None, cfg=DEFAULT):
    """verify_quality one cut at a time: the same cuts in the same order,
    each with cut_capacity, the reference DP and its own ratio.  Returns
    the mode, samples, seed, records, worst ratio and violations."""
    n = g.vertex_count
    if mode is None:
        mode = "exhaustive" if n <= 12 else "sampled"
    verts = sorted(g.vertices)
    samples = 0
    if mode == "exhaustive":
        cuts = [frozenset(verts[i] for i in range(n - 1) if (mask >> i) & 1)
                for mask in range(1, 1 << (n - 1))]
    else:
        vset = g.vertex_set()
        cuts = []
        seen = set()

        def push(b):
            b = frozenset(b)
            if b and b != vset and b not in seen:
                key = b if verts[-1] not in b else vset - b
                if key not in seen:
                    seen.add(key)
                    cuts.append(key)

        for v in verts:
            push({v})
        for node in t.nodes():
            push(node.members)
        rng = random.Random(cfg.seed)
        samples = cfg.samples
        for _ in range(samples):
            k = rng.randint(1, n - 1)
            push(rng.sample(verts, k))

    records = []
    violations = []
    worst = Fraction(1)
    mincut = reference_mincut(t)
    for b in cuts:
        cap = cut_capacity(g, b)
        mc = mincut(b)
        if cap > mc:
            violations.append(b)
            records.append((b, cap, mc, None))
            continue
        ratio = Fraction(mc, cap) if cap > 0 else None
        if ratio is not None:
            worst = max(worst, ratio)
        records.append((b, cap, mc, ratio))
    return SimpleNamespace(mode=mode, samples=samples, seed=cfg.seed,
                           records=records, worst=worst,
                           violations=violations)


def ranked(records, limit):
    """The records with a ratio, largest ratio first and equal ratios in
    cut order, at most limit of them (all for None)."""
    return sorted((r for r in records if r[3] is not None),
                  key=lambda r: r[3], reverse=True)[:limit]


def types(records):
    return [tuple(map(type, r)) for r in records]


def assert_same_report(got, want, limits=()):
    """The report equals reference_verify's: its records, worst ratio,
    violations and JSON fields, and its table's rows ranked from the
    reference records, in full and at each of limits."""
    assert got.records == want.records
    assert types(got.records) == types(want.records)
    assert got.violations == want.violations
    assert got.worst == want.worst and type(got.worst) is Fraction
    doc = {"format_version": 1, "mode": want.mode,
           "worst_ratio": frac_str(want.worst),
           "cuts_checked": len(want.records),
           "violations": [sorted(c) for c in want.violations]}
    if want.mode == "sampled":
        doc.update(samples=want.samples, seed=want.seed)
    assert json.loads(got.to_json()) == doc
    for limit in (None,) + tuple(limits):
        rows = got._cuts.top(limit)
        assert rows == ranked(want.records, limit)
        assert types(rows) == types(ranked(want.records, limit))


def small_exact_graphs(seed=1):
    """The benchmark's small-exact corpus: its random cells and its fixed
    grids and path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SmallExact().setup(seed, False, None)["graphs"]


def scaled(g, factor, only=None):
    """g with the capacity of every edge, or of edge number `only`,
    multiplied by factor."""
    return Graph(g.vertices, [(u, v, c * factor if only in (None, i) else c)
                              for i, (u, v, c) in enumerate(g.edges)])


class TestVerify:
    def test_small_exact_corpus(self):
        graphs = small_exact_graphs()
        assert len(graphs) > 100
        for g in graphs:
            for build in (build_basic, build_improved):
                t = build(g)
                assert_same_report(verify_quality(g, t),
                                   reference_verify(g, t))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sampled_rings(self, seed):
        cfg = Config(samples=500, seed=seed)
        for k, s in ((3, 4), (4, 5), (6, 4)):
            g = ring_of_cliques(k, s)
            for build in (build_basic, build_improved):
                t = build(g)
                assert_same_report(verify_quality(g, t, "sampled", cfg),
                                   reference_verify(g, t, "sampled", cfg))

    def test_sampled_large_ring_trees(self):
        """Sampled verifies above n = 24, of the hand-written 8x6 and 32x4
        ring trees (no oracle runs): n = 128 draws some cuts from the
        stdlib's set branch for k <= 21 and some from its pool."""
        from test_verify import ring_tree
        cfg = Config(samples=300, seed=4)
        for k, s in ((8, 6), (32, 4)):
            g, t = ring_tree(k, s)
            assert_same_report(verify_quality(g, t, "sampled", cfg),
                               reference_verify(g, t, "sampled", cfg))

    def test_exhaustive_across_row_chunks(self):
        """A forced exhaustive verify of a 15-vertex ring scores its
        2^14 - 1 cuts in several row chunks; the report must not see the
        seams."""
        g = ring_of_cliques(3, 5)
        assert len(_row_chunks(2 ** 14 - 1, g.vertex_count)) > 1
        for build in (build_basic, build_improved):
            t = build(g)
            got = verify_quality(g, t, "exhaustive")
            want = reference_verify(g, t, "exhaustive")
            # a limit ranks only the rows near the limit-th float ratio
            assert_same_report(got, want, limits=(1, 10, 200))
            assert got.cuts_checked == len(got.records) == 2 ** 14 - 1

    @pytest.mark.parametrize("weight", [("leaf", 0), ("inner", 1)])
    def test_tampered_weights(self, weight):
        """A leaf weight of 0 or an inner weight of 1, set on the heaviest
        such node, puts the tree estimate below some cuts: the violations
        must match the reference."""
        kind, value = weight
        cfg = Config(samples=300, seed=2)
        cases = [(scaled(ring_of_cliques(3, 4), 2), "exhaustive"),
                 (labelled_graph(random.Random(8), 9), "exhaustive"),
                 (scaled(ring_of_cliques(4, 5), 2), "sampled")]
        violated = 0
        for g, mode in cases:
            t = build_basic(g)
            max((n for n in t.nodes()[1:] if n.is_leaf == (kind == "leaf")),
                key=lambda n: n.weight).weight = value
            got = verify_quality(g, t, mode, cfg)
            violated += bool(got.violations)
            want = reference_verify(g, t, mode, cfg)
            assert_same_report(got, want, limits=(1, 10, 200))
        assert violated >= 2

    @pytest.mark.parametrize("big", [2 ** 61, 2 ** 70])
    def test_capacities_past_int64(self, big):
        """Sums of 2^62 and more run on Python ints; a single heavy edge
        below that keeps the int64 arrays."""
        cfg = Config(samples=200, seed=1)
        for g in (scaled(path(6), big), scaled(ring_of_cliques(3, 3), big),
                  scaled(path(7), big, only=2)):
            for build in (build_basic, build_improved):
                t = build(g)
                for mode in ("exhaustive", "sampled"):
                    assert_same_report(verify_quality(g, t, mode, cfg),
                                       reference_verify(g, t, mode, cfg))
                rng = random.Random(4)
                cuts = [n.members for n in t.nodes()[1:]]
                cuts += [rng.sample(g.vertices, rng.randint(1, 5))
                         for _ in range(10)]
                for b in cuts:
                    assert mincut_in_tree(t, b) == brute_tree_mincut(t, b)

    @pytest.mark.parametrize("n", [13, 20, 48])
    def test_sampled_non_contiguous_labels(self, n):
        """Vertex ids that are not 0..n-1: column j of the sample matrix
        must stand for the j-th smallest id, as the stdlib draw over the
        sorted ids picks it."""
        rng = random.Random(n)
        labels = sorted(rng.sample(range(3 * n + 100), n))
        g = labelled_graph(rng, n, labels)
        cfg = Config(samples=1000, seed=n)
        for build in (build_basic, build_improved):
            t = build(g)
            assert_same_report(verify_quality(g, t, "sampled", cfg),
                               reference_verify(g, t, "sampled", cfg))

    def test_sampled_forced_cuts_only(self):
        """With no samples the report holds the singletons and the tree
        nodes' members alone, once each."""
        cfg = Config(samples=0)
        for g in (ring_of_cliques(4, 4),
                  labelled_graph(random.Random(6), 14,
                                 list(range(7, 63, 4)))):
            for build in (build_basic, build_improved):
                t = build(g)
                got = verify_quality(g, t, cfg=cfg)
                assert got.mode == "sampled" and got.samples == 0
                assert_same_report(got, reference_verify(g, t, cfg=cfg))

    def test_sampled_mostly_repeats(self):
        """10,000 draws over 13 vertices, which have 4,095 cuts: most rows
        repeat an earlier one and only the first of each is kept."""
        g = labelled_graph(random.Random(13), 13)
        cfg = Config(samples=10000, seed=4)
        t = build_basic(g)
        got = verify_quality(g, t, cfg=cfg)
        assert got.cuts_checked < 4096
        assert_same_report(got, reference_verify(g, t, cfg=cfg))

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_no_edges(self, mode):
        """13 vertices and no edge: every cut has capacity 0 and a tree
        estimate of 0, so no row has a ratio and none violates."""
        g = Graph(range(0, 39, 3), [])
        cfg = Config(samples=500, seed=2)
        t = build_basic(g)
        got = verify_quality(g, t, mode, cfg)
        assert got.ok and got.worst == 1
        assert len(got.table_lines()) == 1
        assert_same_report(got, reference_verify(g, t, mode, cfg))
