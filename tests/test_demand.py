import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecut.graph import Graph, Measure, cut_capacity, parse_edge_list, subdivide
from treecut.demand import (DemandError, DemandMatrix, DemandState,
                            from_matrix, leaf_init, parse_demands,
                            respects_exact, update)

from corpus import restrict


def rand_valid_state(rng, vertices, commodities=2):
    """A random valid demand state: each commodity's masses sum to zero."""
    entries = {}
    for k in range(commodities):
        picks = rng.sample(vertices, min(len(vertices), rng.randint(2, 4)))
        vals = [Fraction(rng.randint(-5, 5)) for _ in picks[:-1]]
        vals.append(-sum(vals, Fraction(0)))
        for v, a in zip(picks, vals):
            if a:
                entries[(v, k)] = entries.get((v, k), Fraction(0)) + a
    return DemandState(entries)


class TestStateBasics:
    def test_worked_update_example(self):
        """(20, -70, 10) at one vertex updated by a half-load send becomes
        (14, -49, 7) there; the receiver gets the complementary signed mix."""
        p = DemandState({(0, 0): 20, (0, 1): -70, (0, 2): 10})
        q = DemandMatrix({(0, 1): 30})
        out = update(p, q)
        assert out.entries == {(0, 0): 14, (0, 1): -49, (0, 2): 7,
                               (1, 0): 6, (1, 1): -21, (1, 2): 3}

    def test_validity_preserved_by_update(self):
        rng = random.Random(2)
        for _ in range(40):
            p = rand_valid_state(rng, list(range(5)))
            if p.is_zero():
                continue
            loads = p.loads()
            q = DemandMatrix({(u, (u + 1) % 5): l / 2
                              for u, l in loads.items() if l > 0})
            out = update(p, q)
            assert out.is_valid()
            assert (out - p).is_valid()

    def test_update_zero_load_source_rejected(self):
        p = DemandState({(0, 0): 1, (1, 0): -1})
        q = DemandMatrix({(2, 0): 1})
        with pytest.raises(DemandError):
            update(p, q)

    def test_load_never_increases(self):
        """Updates only move (and cancel) mass, so total load is monotone."""
        rng = random.Random(9)
        for _ in range(40):
            p = rand_valid_state(rng, list(range(6)))
            if p.is_zero():
                continue
            loads = p.loads()
            q = DemandMatrix(
                {(u, rng.choice([v for v in range(6) if v != u])):
                 l * Fraction(rng.randint(1, 4), 4)
                 for u, l in loads.items() if l > 0})
            out = update(p, q)
            assert out.total_load() <= p.total_load()

    def test_dem_across_symmetric_for_valid(self):
        rng = random.Random(4)
        for _ in range(30):
            p = rand_valid_state(rng, list(range(6)))
            side = frozenset(rng.sample(range(6), 3))
            rest = frozenset(range(6)) - side
            assert p.dem_across(side) == p.dem_across(rest)


class TestMatrixStateBridge:
    def test_from_matrix_cut_demand_within_factor_two(self):
        """dem_P(cut) <= dem_Q(cut) <= 2 dem_P(cut) for P built from Q."""
        rng = random.Random(13)
        for _ in range(60):
            verts = list(range(6))
            m = {}
            for _ in range(rng.randint(1, 8)):
                u, v = rng.sample(verts, 2)
                m[(u, v)] = m.get((u, v), 0) + Fraction(rng.randint(1, 5),
                                                        rng.randint(1, 3))
            q = DemandMatrix(m)
            p = from_matrix(q)
            assert p.is_valid()
            for _ in range(5):
                side = frozenset(rng.sample(verts, rng.randint(1, 5)))
                dem_p = p.dem_across(side)
                dem_q = q.dem_across(side)
                assert dem_p <= dem_q <= 2 * dem_p or dem_q == dem_p == 0

    def test_all_to_all_row_sums(self):
        q = DemandMatrix.spread({v: 1 for v in range(4)}, [0, 1, 2, 3],
                                lambda v: 1)
        for u in range(4):
            assert sum(a for (s, _), a in q.entries.items() if s == u) \
                == Fraction(3, 4)

    def test_all_to_all_weighted(self):
        q = DemandMatrix.spread({0: 1, 1: 1}, [0, 1],
                                weight_of=lambda v: v + 1)
        assert q.entries[(0, 1)] == Fraction(2, 3)
        assert q.entries[(1, 0)] == Fraction(1, 3)


def spread_all(p, vertices, weight_of=lambda v: 1):
    """Move every vertex's whole load over `vertices` by weight."""
    q = DemandMatrix.spread(restrict(p, vertices).loads(), vertices,
                            weight_of)
    return update(p, q), q


class TestSpread:
    def test_spread_equalizes(self):
        p = DemandState({(0, 0): 6, (1, 0): -6, (1, 1): 3, (2, 1): -3})
        out, q = spread_all(p, [0, 1, 2])
        for k in (0, 1):
            tot = sum(p.entries.get((v, k), 0) for v in range(3))
            for v in range(3):
                assert out.entries.get((v, k), 0) == Fraction(tot, 3)

    def test_spread_weighted_shares(self):
        p = DemandState({(0, 0): 8, (1, 0): -8, (0, 1): 4, (2, 1): -4})
        w = {0: 1, 1: 2, 2: 1}
        out, _ = spread_all(p, [0, 1, 2], weight_of=lambda v: w[v])
        for v in range(3):
            for k in (0, 1):
                tot = sum(p.entries.get((u, k), 0) for u in range(3))
                assert out.entries.get((v, k), 0) == tot * Fraction(w[v], 4)

    def test_spread_total_moved_bounded_by_load(self):
        rng = random.Random(21)
        for _ in range(30):
            p = rand_valid_state(rng, list(range(5)))
            if p.is_zero():
                continue
            out, q = spread_all(p, list(range(5)))
            assert sum(q.entries.values()) <= p.total_load()
            assert out.is_valid() == p.is_valid()

    def test_sources_outside_targets_send_everything(self):
        """Sources that are not targets send their whole mass, split over
        the targets by weight (the shape of the replay's merge-to-sep)."""
        q = DemandMatrix.spread({0: 6, 1: Fraction(3, 7)}, [2, 3],
                                weight_of=lambda v: v)
        assert q.entries == {(0, 2): Fraction(12, 5), (0, 3): Fraction(18, 5),
                             (1, 2): Fraction(6, 35), (1, 3): Fraction(9, 35)}
        p = DemandState({(0, 0): 4, (0, 1): -2, (1, 0): Fraction(-3, 7),
                         (2, 0): Fraction(-25, 7), (3, 1): 2})
        out = update(p, q)
        assert not {(0, 0), (0, 1), (1, 0)} & out.entries.keys()
        assert out.entries[(2, 0)] == Fraction(-25, 7) + Fraction(8, 5) \
            - Fraction(6, 35)
        assert (out - p).is_valid()

    def test_zero_target_weight_rejected(self):
        with pytest.raises(DemandError):
            DemandMatrix.spread({0: 1}, [1, 2], weight_of=lambda v: 0)
        with pytest.raises(DemandError):
            DemandMatrix.spread({0: 1}, [], lambda v: 1)


class TestRespects:
    def test_triangle_unit_demand(self):
        g = parse_edge_list("0 1\n1 2\n0 2\n")
        p = from_matrix(DemandMatrix({(0, 1): 1, (1, 2): 1, (2, 0): 1}))
        ratio, side = respects_exact(g, p)
        # every cut has capacity 2 and carries demand 2 (one commodity out,
        # one commodity in), so the worst ratio is 1
        assert ratio == 1

    def test_zero_demand_gives_none(self):
        g = parse_edge_list("0 1\n")
        ratio, side = respects_exact(g, DemandState())
        assert ratio is None and side is None

    def test_respects_matches_definition(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(3, 6)
            edges = [(i, j, rng.randint(1, 3)) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.7]
            if not edges:
                continue
            g = Graph(range(n), edges)
            p = rand_valid_state(rng, list(range(n)))
            ratio, side = respects_exact(g, p)
            if ratio is None:
                continue
            assert p.dem_across(side) > 0
            assert Fraction(cut_capacity(g, side)) == ratio * p.dem_across(side)


class TestLeafInit:
    def test_shares_proportional_to_capacity(self):
        g = Graph([0, 1, 2], [(0, 1, 3), (0, 2, 1)])
        sub = subdivide(g)
        p = DemandState({(0, 0): 4, (1, 0): -3, (2, 0): -1})
        parts = leaf_init(p, sub)
        x01, x02 = sub.split(0, 1), sub.split(0, 2)
        assert parts[0].entries == {(x01, 0): 3, (x02, 0): 1}
        assert parts[1].entries == {(x01, 0): -3}
        assert parts[2].entries == {(x02, 0): -1}

    def test_per_node_load_bounded_by_capacity(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(3, 6)
            edges = [(i, j, rng.randint(1, 3)) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.8]
            if not edges:
                continue
            g = Graph(range(n), edges)
            sub = subdivide(g)
            # demand bounded by degree at every vertex
            entries = {}
            for v in g.vertices:
                if g.degree(v) >= 2:
                    entries[(v, v)] = Fraction(g.degree(v), 2)
                    entries[((v + 1) % n, v)] = -Fraction(g.degree(v), 2)
            p = DemandState(entries)
            try:
                parts = leaf_init(p, sub)
            except DemandError:
                continue
            for v, st_v in parts.items():
                for x, load in st_v.loads().items():
                    u, w = sub.edge_of_split[x]
                    assert load <= g.cap[(u, w)]

    def test_overload_rejected(self):
        g = Graph([0, 1], [(0, 1, 1)])
        sub = subdivide(g)
        p = DemandState({(0, 0): 2, (1, 0): -2})
        with pytest.raises(DemandError):
            leaf_init(p, sub)


def test_parse_demands():
    p = parse_demands("0 0 1 -2\n1 0 3 6\n# comment\n1 0 0 5\n")
    assert p.entries == {(0, 0): Fraction(-1, 2), (1, 0): Fraction(1, 2)}
    for bad in ("0 0 1 0\n", "0 0 1/2 1\n", "0 0 1\n"):
        with pytest.raises(DemandError):
            parse_demands(bad)


class TestErrorMessages:
    """Each error names the exact Fraction values and vertices at fault."""

    def test_leaf_init_over_degree(self):
        g = Graph([0, 1, 2], [(0, 1, 2), (1, 2, 1)])
        p = DemandState({(0, 0): Fraction(5, 2), (2, 0): Fraction(-5, 2)})
        with pytest.raises(DemandError, match=r"^leaf_init: load 5/2 "
                           r"exceeds degree 2 at vertex 0$"):
            leaf_init(p, subdivide(g))

    def test_update_zero_load_source(self):
        p = DemandState({(0, 0): Fraction(1, 3), (1, 0): Fraction(-1, 3)})
        q = DemandMatrix({(0, 1): Fraction(1, 9), (7, 0): Fraction(2, 5)})
        with pytest.raises(DemandError,
                           match=r"^update source 7 has zero load$"):
            update(p, q)

    def test_spread_zero_total_weight(self):
        for targets, weight_of in (([1, 2], lambda v: 0), ([], lambda v: 1)):
            with pytest.raises(DemandError, match=r"^spread needs positive "
                               r"total target weight$"):
                DemandMatrix.spread({0: Fraction(1, 3)}, targets, weight_of)

    def test_spread_negative_mass(self):
        with pytest.raises(DemandError, match=r"^bad demand entry$"):
            DemandMatrix.spread({0: Fraction(1, 3), 1: Fraction(-1, 3)},
                                [0, 1, 2], lambda v: 1)

    def test_matrix_entries_checked(self):
        with pytest.raises(DemandError, match=r"^negative demand entry$"):
            DemandMatrix({(0, 1): Fraction(1, 2), (1, 2): Fraction(-1, 7)})
        with pytest.raises(DemandError,
                           match=r"^diagonal demand entry at 3$"):
            DemandMatrix({(0, 1): 1, (3, 3): Fraction(2, 3)})


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_update_validity_property(seed):
    rng = random.Random(seed)
    p = rand_valid_state(rng, list(range(5)), commodities=3)
    if p.is_zero():
        return
    out, _ = spread_all(p, list(range(5)))
    assert out.is_valid()
    assert (out - p).is_valid() and p.is_valid()
