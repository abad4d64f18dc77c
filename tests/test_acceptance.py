"""Acceptance suite: one test per criterion, each ending in a single
PASS line.  Run with -s (or read the -v test lines) for the summary."""

import math
import random
import time
from fractions import Fraction

import pytest

from treecut.config import DEFAULT, Config
from treecut.demand import (DemandMatrix, DemandState, leaf_init, update)
from treecut.flow import FlowNetwork, max_flow
from treecut.graph import Graph, cut_capacity, subdivide
from treecut.merge import MergePartition
from treecut.oracle import check_outcome, check_refined
from treecut.refine import RefinementResult
from treecut.replay import full_replay
from treecut.tree import build_basic, build_improved, mincut_in_tree
from treecut.verify import quality_envelope, verify_quality

from corpus import (brute_min_cut, brute_tree_mincut, product_growth_ok,
                    random_demand, random_graph, scale_to_respect,
                    triangle_chain)

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    """(graph, basic tree, improved tree) for 200 mixed-density n <= 12
    instances, plus the wall-clock seconds the builds took."""
    rng = random.Random(42)
    items = []
    t0 = time.time()
    for _ in range(CORPUS_SIZE):
        n = rng.randint(2, 12)
        p = rng.choice((0.25, 0.45, 0.65, 0.85))
        g = random_graph(rng, n, p, 8)
        items.append((g, build_basic(g), build_improved(g)))
    return items, time.time() - t0


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    items, build_secs = corpus
    t0 = time.time()
    out = [(g, verify_quality(g, tb), verify_quality(g, ti))
           for g, tb, ti in items]
    return out, build_secs + (time.time() - t0)


def _partitions(tree):
    return [n.detail for n in tree.nodes()
            if isinstance(n.detail, MergePartition)]


def _refinements(tree):
    return [n.refinement for n in tree.nodes() if n.refinement is not None]


def test_criterion_01_unconditional_lower_bound(corpus_reports):
    reports, secs = corpus_reports
    assert len(reports) >= 200
    for g, rb, ri in reports:
        assert rb.mode == "exhaustive" and ri.mode == "exhaustive"
        assert not rb.violations and not ri.violations
    assert secs < 300, "corpus build+verify took %.0fs" % secs
    print("\nCRITERION 1 PASS: zero lower-bound violations over %d "
          "exhaustively verified instances, both modes (%.0fs)"
          % (len(reports), secs))


def test_criterion_02_quality_envelope(corpus_reports):
    reports, _ = corpus_reports
    basic, improved = [], []
    for g, rb, ri in reports:
        n = g.vertex_count
        bound = quality_envelope(n)
        assert rb.worst <= bound and ri.worst <= bound
        basic.append(rb.worst)
        improved.append(ri.worst)
    basic.sort()
    improved.sort()
    med_b = basic[len(basic) // 2]
    med_i = improved[len(improved) // 2]
    assert med_i <= med_b
    print("\nCRITERION 2 PASS: alpha <= %s*(log n)^2*loglog n everywhere; "
          "median alpha improved %s <= basic %s"
          % (DEFAULT.quality_C, med_i, med_b))


def test_criterion_03_worked_update_example():
    p = DemandState({("u", 0): 20, ("u", 1): -70, ("u", 2): 10})
    q = DemandMatrix({("u", "v"): 30})
    new = update(p, q)
    assert new.entries == {("u", 0): 14, ("u", 1): -49, ("u", 2): 7,
                           ("v", 0): 6, ("v", 1): -21, ("v", 2): 3}
    print("\nCRITERION 3 PASS: update((20,-70,10), 30 u->v) = (14,-49,7) "
          "exactly")


def test_criterion_04_demand_state_facts():
    rng = random.Random(11)
    verts = list(range(8))
    for _ in range(1000):
        entries = {(rng.choice(verts), rng.randint(0, 2)):
                   Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 8))}
        p = DemandState(entries)
        loads = p.loads()
        m = {}
        for _ in range(rng.randint(0, 5)):
            srcs = [v for v in verts if loads.get(v, 0) > 0]
            if not srcs:
                break
            u = rng.choice(srcs)
            v = rng.choice([w for w in verts if w != u])
            m[(u, v)] = m.get((u, v), 0) + Fraction(
                rng.randint(1, 5), rng.randint(1, 3)) * loads[u] / 10
        q = DemandMatrix(m)
        new = update(p, q)
        diff = p - new
        assert diff.is_valid()                      # difference is valid
        for _ in range(5):
            side = frozenset(rng.sample(verts, rng.randint(1, 7)))
            assert diff.dem_across(side) <= q.dem_across(side)
        # summed cut demand is subadditive
        p2 = DemandState({(rng.choice(verts), k): Fraction(rng.randint(-5, 5))
                          for k in range(3)})
        p2 = p2 - DemandState(
            {(rng.choice(verts), k): a
             for (_, k), a in p2.entries.items()})
        assert p2.is_valid()
        pv = diff
        side = frozenset(rng.sample(verts, rng.randint(1, 7)))
        assert (pv + p2).dem_across(side) \
            <= pv.dem_across(side) + p2.dem_across(side)
    # leaf splitting never loses cut demand beyond the cut capacity
    rng = random.Random(12)
    checked = 0
    for _ in range(10):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, 0.6, 4)
        sub = subdivide(g)
        entries = {}
        for k in range(2):
            u, v = rng.sample(range(n), 2)
            entries[(u, k)] = entries.get((u, k), Fraction(0)) \
                + Fraction(1, 2)
            entries[(v, k)] = entries.get((v, k), Fraction(0)) \
                - Fraction(1, 2)
        p = DemandState(entries)
        if any(a > g.degree(v) for v, a in p.loads().items()):
            continue
        lifted = DemandState()
        for st in leaf_init(p, sub).values():
            lifted = lifted + st
        for mask in range(1, 1 << (n - 1)):
            bset = frozenset(v for v in range(n - 1) if (mask >> v) & 1)
            if not bset:
                continue
            blift = sub.lift_cut(bset)
            assert p.dem_across(bset) \
                <= lifted.dem_across(blift) + cut_capacity(g, bset)
            checked += 1
    assert checked > 500
    print("\nCRITERION 4 PASS: 1000 (P,Q) pairs satisfy the update facts; "
          "leaf splitting checked on %d cuts" % checked)


def test_criterion_05_oracle_postconditions(corpus):
    items, _ = corpus
    n_base = n_refined = 0
    for g, tb, ti in items:
        for tree in (tb, ti):
            for part in _partitions(tree):
                for out in part.clustering.outcomes:
                    rep = check_outcome(out)
                    assert rep.ok, rep.failures
                    n_base += 1
            for res in _refinements(tree):
                for _, out in res.outcomes:
                    rep = check_refined(out)
                    assert rep.ok, rep.failures
                    n_refined += 1
    # random graphs mostly shatter to singletons before the refinement
    # runs, so force a few additional refined outcomes on a graph whose
    # capacity ratios make the refinement split
    from treecut.graph import ClusterView
    from treecut.refine import refine
    res = refine(ClusterView(subdivide(triangle_chain()), range(12)), 18)
    for _, out in res.outcomes:
        rep = check_refined(out)
        assert rep.ok, rep.failures
        n_refined += 1
    assert n_base > 200 and n_refined >= 5
    print("\nCRITERION 5 PASS: %d oracle outcomes and %d refined outcomes "
          "pass their self-checkers" % (n_base, n_refined))


def test_criterion_06_merge_contracts(corpus):
    items, _ = corpus
    checked = 0
    for g, tb, ti in items:
        for tree in (tb, ti):
            for part in _partitions(tree):
                view = part.view
                n_s = len(view.cluster)
                for z in part.clustering.components:
                    assert len(z) <= math.ceil(2 * n_s / 3)
                for p in part.sub_clusters:
                    assert 3 * len(p) <= 2 * n_s
                # separation re-verified by reachability
                reach = view.sprime.reachable(
                    sorted(view.x_boundary - part.x_y), removed=part.x_y)
                assert not (reach & (part.clustering.x_f - part.x_y))
                assert not (reach & part.l_side)
                checked += 1
    assert checked > 200
    print("\nCRITERION 6 PASS: size, loop and separation contracts hold on "
          "%d merge partitions" % checked)


def test_criterion_07_fair_cut_separator(corpus):
    items, _ = corpus
    flows = 0
    for g, tb, ti in items:
        for tree in (tb, ti):
            for part in _partitions(tree):
                for sep in (part.flow_to_b, part.flow_to_f):
                    assert sep.congestion <= 2
                    for x in part.x_y:
                        total = sum((a for _, a in sep.per_source[x]),
                                    Fraction(0))
                        assert total == part.mu_tau[x]
                    for t, got in sep.sink_in.items():
                        assert got <= 2 * part.mu_tau[t]
                    flows += 1
    assert flows > 200
    print("\nCRITERION 7 PASS: %d separator flows feasible with congestion "
          "<= 2 and sink caps 2*mu" % flows)


def test_criterion_08_refinement_contracts(corpus):
    items, _ = corpus
    leaves = routes = 0

    def check_res(res):
        nonlocal leaves, routes
        for cert in res.certificates:
            assert cert.ok is not False
            if cert.verified == "exact" and cert.ratio is not None:
                assert cert.ratio >= cert.target
            leaves += 1
        assert res.routing.ok, res.routing.failures
        if len(res.clusters) > 1:
            routes += 1

    for g, tb, ti in items:
        for res in _refinements(ti):
            check_res(res)
    # extreme capacity ratios force non-trivial refinements with routed
    # inter-cluster edges
    from treecut.graph import ClusterView
    from treecut.refine import refine
    g = triangle_chain()
    check_res(refine(ClusterView(subdivide(g), range(12)), 18))
    # a strong core with a thinly attached appendage trims to a leaf
    edges = [(i, j, 10) for i in range(6) for j in range(i + 1, 6)]
    edges += [(0, 8, 100000), (1, 8, 100000), (2, 8, 60000)]
    edges += [(6, 7, 30), (5, 6, 1), (6, 8, 500), (7, 8, 500)]
    g2 = Graph(range(9), edges)
    check_res(refine(ClusterView(subdivide(g2), range(8)), 12))
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        for k in range(2, 65):
            assert product_growth_ok(k, c)
    assert leaves >= 10 and routes >= 1
    print("\nCRITERION 8 PASS: %d refinement leaves respect their boundary "
          "demand, %d routings within the product envelope, growth bound "
          "holds for k in 2..64" % (leaves, routes))


def test_criterion_09_charging_replay(corpus):
    """The charging replay of Räcke, Shah and Täubig (SODA 2014): random
    1-respected demand states and random cuts replay clean in both modes;
    the PASS line reports the worst per-edge charge of each mode."""
    items, _ = corpus
    rng = random.Random(99)
    small = [(g, tb, ti) for g, tb, ti in items if 2 <= g.vertex_count <= 9
             and g.edge_count > 0]
    t0 = time.time()
    worst = {"basic": Fraction(0), "improved": Fraction(0)}
    done = 0
    i = 0
    while done < 100:
        g, tb, ti = small[i % len(small)]
        i += 1
        n = g.vertex_count
        p0 = random_demand(rng, n)
        b = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
        scaled = [(t, scale_to_respect(t, p0)) for t in (tb, ti)]
        if any(p is None for _, p in scaled):
            continue
        for t, p in scaled:
            rep = full_replay(t, p, b)
            assert rep.ledger.total_mass() >= rep.initial_dem
            assert rep.dem_p <= rep.ledger.total_mass() + rep.cap_cut
            worst[t.mode] = max(worst[t.mode], rep.max_charge)
        done += 1
    secs = time.time() - t0
    assert secs < 600, "replay suite took %.0fs" % secs
    print("\nCRITERION 9 PASS: %d (graph, demand, cut) triples replayed "
          "clean in both modes, worst per-edge charge %s basic, %s improved "
          "(%.0fs)" % (done, worst["basic"], worst["improved"], secs))


def test_criterion_10_oracle_equivalence(corpus):
    items, _ = corpus
    rng = random.Random(5)
    trees = 0
    for g, tb, ti in items:
        for t in (tb, ti):
            if len(t.nodes()) - 1 > 15 or trees >= 50:
                continue
            for _ in range(3):
                n = g.vertex_count
                if n < 2:
                    continue
                b = frozenset(rng.sample(sorted(g.vertices),
                                         rng.randint(1, n - 1)))
                assert mincut_in_tree(t, b) == brute_tree_mincut(t, b)
            trees += 1
    assert trees >= 50
    nets = 0
    while nets < 100:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.6, 5)
        srcs = {v: rng.randint(1, 6)
                for v in rng.sample(range(n), rng.randint(1, n - 1))}
        sinks = {v: rng.randint(1, 6)
                 for v in rng.sample(sorted(set(range(n)) - set(srcs)),
                                     max(1, rng.randint(1, n - len(srcs))))}
        net = FlowNetwork(g, srcs, sinks)
        sol, _ = max_flow(net)
        assert sol.value == brute_min_cut(net)
        nets += 1
    print("\nCRITERION 10 PASS: tree min-cut DP matches brute force on %d "
          "trees; max-flow matches brute min-cut on %d networks"
          % (trees, nets))


def test_criterion_11_determinism():
    rng = random.Random(77)
    g = random_graph(rng, 9, 0.5, 8)
    for build in (build_basic, build_improved):
        a, b = build(g), build(g)
        assert a.to_json() == b.to_json()
        ra = verify_quality(g, a)
        rb = verify_quality(g, b)
        assert ra.to_json() == rb.to_json()
    g13 = random_graph(rng, 13, 0.4, 8)
    t = build_basic(g13)
    cfg = Config(samples=60, seed=3)
    assert verify_quality(g13, t, cfg=cfg).to_json() \
        == verify_quality(g13, t, cfg=cfg).to_json()
    print("\nCRITERION 11 PASS: repeated builds and reports are "
          "byte-identical, exhaustive and sampled")
