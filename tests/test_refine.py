import random
from fractions import Fraction

import pytest

from treecut.config import DEFAULT
from treecut.graph import Graph, edge_key
from treecut.merge import MergePartition
from treecut.oracle import CheckReport
from treecut.refine import (C0_DECLARED, SCHEDULE_CF, RefineError,
                            check_routing, f_value, product_envelope, refine)
from treecut.tree import build_basic, build_improved
from treecut.util import rlog2, rloglog2

from corpus import (product_growth_ok, reference_unit_rows, ring_of_cliques,
                    triangle_chain, view_of)


def assert_rows_cover_cuts(res):
    """Every routed node's rows are keyed by exactly the split nodes of its
    cut edges, and each split's row carries the capacity it sources."""
    sub = res.view.root
    for node in res.root.walk():
        if node.route is None:
            continue
        assert list(node.rows) == [sub.split(u, v) for u, v in node.cut_keys]
        assert list(node.unit) == list(node.rows)
        for x, row in node.rows.items():
            assert sum(a for _, a in row) == node.unit[x]


def core_with_appendage():
    """A well-connected core with huge boundary plus a thinly attached
    two-vertex appendage that still has substantial boundary of its own."""
    edges = [(i, j, 10) for i in range(6) for j in range(i + 1, 6)]
    edges += [(0, 8, 100000), (1, 8, 100000), (2, 8, 60000)]
    edges += [(6, 7, 30), (5, 6, 1), (6, 8, 500), (7, 8, 500)]
    return Graph(range(9), edges)


def random_graph(rng, n, p=0.55):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, 10 ** rng.randint(0, 4)
                              * rng.randint(1, 9)))
    return Graph(range(n), edges)


class TestSchedule:
    def test_coefficient_matches_float_oracle(self):
        import math
        want = 4 * float(C0_DECLARED) / math.log2(4 / 3)
        assert abs(float(SCHEDULE_CF) - want) < 1e-6

    def test_f_grows_as_clusters_shrink(self):
        vals = [f_value(s, 64, 1000) for s in (40, 20, 10, 5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_precondition(self):
        with pytest.raises(RefineError):
            f_value(10, 14, 100)
        f_value(10, 15, 100)  # boundary case allowed


class TestEnvelope:
    def test_top_of_schedule_is_one_factor(self):
        import math
        n = 100
        top = 3 * math.ceil(math.log2(n))
        ll = float(rloglog2(n))
        assert abs(float(product_envelope(top, n)) - (1 + 1 / (top * ll))) \
            < 1e-6

    def test_monotone_decreasing_in_depth(self):
        vals = [product_envelope(j, 200) for j in range(1, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empty_product_above_schedule(self):
        assert product_envelope(1000, 50) == 1

    def test_float_cross_check(self):
        import math
        n, j = 300, 2
        top = 3 * math.ceil(math.log2(n))
        ll = float(rloglog2(n))
        want = 1.0
        for l in range(j, top + 1):
            want *= 1 + 1 / (l * ll)
        assert abs(float(product_envelope(j, n)) - want) < 1e-6


class TestGrowthBound:
    def test_holds_for_small_constants(self):
        # at k = 1 the product (1 + c) already exceeds 1^(2c) = 1, so the
        # bound genuinely starts at k = 2
        for c in (Fraction(1, 4), Fraction(1, 2), 1, 2):
            assert not product_growth_ok(1, c)
            for k in range(2, 65):
                assert product_growth_ok(k, c)

    def test_not_vacuous(self):
        # with exponent c instead of 2c the inequality fails, so the check
        # really separates the two bounds
        k, c = 16, 1
        prod = Fraction(1)
        for l in range(1, k + 1):
            prod *= 1 + Fraction(c) / l
        assert prod > k ** c

    def test_rejects_non_quarter_constants(self):
        with pytest.raises(ValueError):
            product_growth_ok(4, Fraction(1, 3))


class TestRefineStructure:
    def test_two_level_split(self):
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        assert set(res.clusters) == {frozenset({0, 1, 2}),
                                     frozenset({3, 4, 5}),
                                     frozenset({6, 7, 8}),
                                     frozenset({9, 10, 11})}
        assert res.inter_cluster_keys == {(2, 3), (5, 6), (8, 9)}

    def test_left_child_size_bound(self):
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        for node in res.root.walk():
            if node.left is not None:
                assert 4 * len(node.left.dset) <= 3 * len(node.dset)

    def test_left_depth_rules(self):
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        assert res.root.left_depth == 1
        for node in res.root.walk():
            if node.left is not None:
                assert node.left.left_depth == node.left_depth + 1
            if node.right is not None:
                assert node.right.left_depth == node.left_depth

    def test_contraction_recorded_for_every_recursion(self):
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        for node in res.root.walk():
            if node.case in ("1", "3b-leaf", "2c-inner"):
                continue
            if node.left is None:
                continue
            assert node.contraction, node.case

    def test_trimmed_expander_becomes_leaf(self):
        g = core_with_appendage()
        res = refine(view_of(g, range(8)), 12)
        cases = {n.case for n in res.root.walk()}
        assert "3b" in cases and "3b-leaf" in cases
        leaf = next(n for n in res.root.walk() if n.case == "3b-leaf")
        assert leaf.cluster_leaf
        assert leaf.left is None and leaf.right is None

    def test_sigma_precondition(self):
        g = triangle_chain()
        with pytest.raises(RefineError):
            refine(view_of(g, range(12)), 17)

    def test_boundaryless_cluster_is_single_leaf(self):
        g = Graph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        res = refine(view_of(g, range(4)), 6)
        assert res.clusters == (frozenset(range(4)),)
        assert res.root.cluster_leaf


class TestLeafCertificates:
    def test_small_leaves_verified_exactly(self):
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        for cert in res.certificates:
            assert cert.verified == "exact"
            assert cert.ok is True
            if cert.ratio is not None:
                assert cert.ratio >= cert.target

    def test_large_leaves_reported_unverified(self):
        edges = [(i, j, 1) for i in range(12) for j in range(i + 1, 12)]
        edges.append((0, 12, 5))
        g = Graph(range(13), edges)
        res = refine(view_of(g, range(12)), 18)
        assert any(c.verified == "unverified" and c.ok is None
                   for c in res.certificates)


class TestRouting:
    def test_mass_conserved_to_boundary(self):
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        assert res.routing.ok, res.routing.failures
        total_cut = sum(Fraction(g.cap[k]) for k in res.inter_cluster_keys)
        assert sum(res.boundary_loads.values()) == total_cut
        # everything ends on boundary splits of the refined cluster
        sub = res.view.root
        for x in res.boundary_loads:
            u, v = sub.edge_of_split[x]
            assert (u in res.view.cluster) != (v in res.view.cluster)

    def test_envelope_and_congestion(self):
        # every routed node's sinks stay within the envelope at its left
        # depth and no edge is used above congestion 2
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        assert res.routing.ok, res.routing.failures

    def test_per_unit_load_matches_hand_value(self):
        # three unit bridges end on boundary edges of capacity 1e5, so the
        # worst per-unit boundary load is at most 3 / 1e5
        g = triangle_chain()
        res = refine(view_of(g, range(12)), 18)
        sub = res.view.root
        per_unit = max(load / sub.base.cap[sub.edge_of_split[x]]
                       for x, load in res.boundary_loads.items())
        assert per_unit <= Fraction(3, 10 ** 5)

    def test_rows_cover_each_cut_split(self):
        res = refine(view_of(triangle_chain(), range(12)), 18)
        assert sum(node.route is not None for node in res.root.walk()) == 3
        assert_rows_cover_cuts(res)

    def test_escalated_routes_keep_their_caps(self):
        """At a declared cap of 1e-6 the cut-to-left routes must escalate;
        each records the cap it reached, and its flow stays within it."""
        g = triangle_chain()
        cfg = DEFAULT.replace(oracle_congestion_cap=Fraction(1, 10 ** 6))
        res = refine(view_of(g, range(12)), 30, cfg)
        escalated = [node.route for node in res.root.walk()
                     if node.route is not None
                     and not node.route.within_declared]
        assert escalated
        for route in escalated:
            assert route.flow.congestion() <= route.congestion_cap
        assert res.routing.ok, res.routing.failures
        assert sum(res.boundary_loads.values()) == sum(
            Fraction(g.cap[k]) for k in res.inter_cluster_keys)


class TestRoutingTamper:
    """Each tampered cut tree fails check_routing with its own clause."""

    def routed(self):
        res = refine(view_of(triangle_chain(), range(12)), 18)
        assert res.routing.ok
        return res, [node for node in res.root.walk()
                     if node.route is not None]

    def test_scaled_row_breaks_the_envelope(self):
        res, nodes = self.routed()
        rows = nodes[0].unit_rows[1]
        x, row = next(iter(rows.items()))
        rows[x] = [(sink, a * 10 ** 6) for sink, a in row]
        rep = check_routing(res)
        assert any("envelope" in f for f in rep.failures), rep.failures

    def test_dropped_route_is_unrouted(self):
        res, nodes = self.routed()
        nodes[-1].route = None
        rep = check_routing(res)
        assert any("not routed" in f for f in rep.failures), rep.failures

    def test_scaled_flow_breaks_the_congestion(self):
        res, nodes = self.routed()
        flow = nodes[0].route.flow
        flow.flow = {k: f * 10 ** 3 for k, f in flow.flow.items()}
        rep = check_routing(res)
        assert any("congestion" in f for f in rep.failures), rep.failures

    def test_removed_row_entry_loses_mass(self):
        res, nodes = self.routed()
        rows = nodes[0].unit_rows[1]
        x, row = next(iter(rows.items()))
        rows[x] = row[1:]
        rep = check_routing(res)
        assert any("moved" in f for f in rep.failures), rep.failures
        assert sum(res.boundary_loads.values()) < sum(
            Fraction(res.view.root.base.cap[k])
            for k in res.inter_cluster_keys)


class TestRandomSweep:
    def test_refine_always_returns_checked_partitions(self):
        rng = random.Random(7)
        case_tags = set()
        for _ in range(60):
            n = rng.randint(3, 9)
            g = random_graph(rng, n)
            k = rng.randint(1, n - 1)
            cluster = rng.sample(range(n), k)
            sigma = rng.randint((3 * k + 1) // 2, 3 * k)
            res = refine(view_of(g, cluster), sigma)
            assert frozenset().union(*res.clusters) == frozenset(cluster)
            for node in res.root.walk():
                case_tags.add(node.case)
                if node.left is not None:
                    assert 4 * len(node.left.dset) <= 3 * len(node.dset)
            assert_rows_cover_cuts(res)
            assert res.routing.ok, res.routing.failures
            for cert in res.certificates:
                assert cert.ok is not False
        assert len(case_tags) >= 3


def reference_check_routing(res):
    """check_routing in Fraction, from the recorded rows: each loaded cut
    split gives up its whole load, and each sink receives amount * load /
    unit of the split's row."""
    rep = CheckReport()
    sub = res.view.root
    base_cap = sub.base.cap
    n = sub.base.vertex_count
    loads = {sub.split(u, v): Fraction(base_cap[(u, v)])
             for u, v in res.inter_cluster_keys}
    total = sum(loads.values(), Fraction(0))
    usage = {}
    for node in res.root.walk():
        if not node.cut_keys:
            continue
        if node.route is None:
            rep.fail("cut of %r is not routed" % sorted(node.dset))
            continue
        unit = node.unit
        max_scale = max(loads.get(x, Fraction(0)) / unit[x] for x in unit)
        for x, row in node.rows.items():
            load = loads.get(x, Fraction(0))
            if load == 0:
                continue
            scale = load / unit[x]
            loads[x] = Fraction(0)
            for sink, amt in row:
                loads[sink] = loads.get(sink, Fraction(0)) + amt * scale
        flow = node.route.flow
        for (a, b), fval in flow.flow.items():
            cap = flow.graph.edge_capacity(a, b)
            k = edge_key(a, b)
            usage[k] = usage.get(k, Fraction(0)) + abs(fval) / cap * max_scale
        env = product_envelope(node.left_depth, n)
        worst = max((loads.get(x, Fraction(0))
                     / base_cap[sub.edge_of_split[x]]
                     for x in node.sink_splits), default=Fraction(0))
        if worst > env:
            rep.fail("node %r at left depth %d: sink load %s per unit above "
                     "the envelope %s" % (sorted(node.dset), node.left_depth,
                                          worst, env))
    loads = {x: l for x, l in loads.items() if l}
    moved = sum(loads.values(), Fraction(0))
    if moved != total:
        rep.fail("routing moved %s of %s units" % (moved, total))
    stray = sorted(set(loads) - res.view.x_boundary)
    if stray:
        rep.fail("routing left mass off the boundary at %r" % stray)
    congestion = max(usage.values(), default=Fraction(0))
    if congestion > 2:
        rep.fail("edge congestion %s above 2" % congestion)
    return rep, loads


def random_refinements(seeds, per_seed):
    """refine() on random_graph draws, per seed per_seed clusters with
    sigma drawn as in TestRandomSweep, each at the default c_phi and at
    c_phi = 100; a draw that raises RefineError is left out."""
    cfgs = (DEFAULT, DEFAULT.replace(c_phi=Fraction(100)))
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(per_seed):
            n = rng.randint(3, 10)
            g = random_graph(rng, n)
            k = rng.randint(1, n - 1)
            cluster = rng.sample(range(n), k)
            sigma = rng.randint((3 * k + 1) // 2, 3 * k)
            for cfg in cfgs:
                try:
                    yield refine(view_of(g, cluster), sigma, cfg)
                except RefineError:
                    pass


def test_check_routing_matches_fraction_reference():
    """The int check gives the Fraction check's verdict, failure texts and
    boundary loads, failing verdicts included (95 split clusters and 13
    failing verdicts among these 239 refinements)."""
    splits = failing = 0
    for res in random_refinements(range(4), 30):
        want, loads = reference_check_routing(res)
        rep = check_routing(res)
        assert (rep.ok, rep.failures) == (want.ok, want.failures)
        assert res.boundary_loads == loads
        splits += len(res.clusters) > 1
        failing += not rep.ok
    assert splits > 50 and failing > 5


def assert_unit_rows_recorded(flow, rows):
    """flow.unit_rows holds the Fraction per-unit shares of its rows."""
    e, nums = flow.unit_rows
    got = [(x, [(sink, Fraction(a, e)) for sink, a in row])
           for x, row in nums.items()]
    assert got == list(reference_unit_rows(rows).items())


def test_every_stored_flow_holds_its_unit_rows():
    routed = 0
    for g in (ring_of_cliques(3, 4), ring_of_cliques(4, 4)):
        for build in (build_basic, build_improved):
            for node in build(g).nodes():
                if isinstance(node.detail, MergePartition):
                    for flow in (node.detail.flow_to_b, node.detail.flow_to_f):
                        assert_unit_rows_recorded(flow, flow.per_source)
                        routed += 1
                if node.refinement is not None:
                    for b in node.refinement.root.walk():
                        if b.route is not None:
                            assert_unit_rows_recorded(b, b.rows)
                            routed += 1
    res = refine(view_of(triangle_chain(), range(12)), 18)
    for b in res.root.walk():
        if b.route is not None:
            assert_unit_rows_recorded(b, b.rows)
            routed += 1
    assert routed > 3
