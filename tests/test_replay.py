import hashlib
import os
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treecut import oracle, replay
from treecut.config import DEFAULT
from treecut.demand import DemandMatrix, DemandState, parse_demands
from treecut.graph import Graph, parse_edge_list
from treecut.refine import refine
from treecut.replay import (ChargeLedger, ReplayError, ReplayTrace,
                            full_replay, replay_merge_cluster,
                            route_refined_state, uniformize_refined)
from treecut.tree import build_basic, build_improved

from corpus import (random_demand, random_graph, reference_leaf_init,
                    reference_spread, reference_sum, reference_update,
                    ring_of_cliques, scale_to_respect, triangle_chain,
                    view_of)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# sha256 of the ring8 replay for the cut {0, 1, 2}: ledger report lines,
# sorted per-edge charges, trace steps and the report's five figures, taken
# with the Fraction demand update and spread that the integer kernels
# replaced
RING_REPLAYS = {
    "basic":
        "78297492ca62892227295c46343b182210ba7cd2a39aee28d02dd894672ccc79",
    "improved":
        "2c3863fc05a5b66384620f9324483db5d8a3d9499a8a98da433e0ff8eefe5334",
}
# sha256 of the refine-route step on the triangle chain: the state after
# it, the ledger lines and per-edge charges, and the trace steps
REFINE_ROUTE = \
    "bb3053201bf5897502c1a0ea67661cc3eb4055908be4346622261ae1138f0cb0"


class TestChargeLedger:
    def test_zero_demand_needs_no_edges(self):
        led = ChargeLedger()
        assert led.add({0, 1}, "x", [], Fraction(0)) == 0
        assert led.total_mass() == 0
        assert led.max_per_edge() == 0

    def test_demand_without_edges_raises(self):
        led = ChargeLedger()
        with pytest.raises(ReplayError):
            led.add({0, 1}, "x", [], Fraction(1))

    def test_charges_accumulate_per_edge(self):
        led = ChargeLedger()
        cross = [((0, 1), Fraction(2)), ((2, 3), Fraction(2))]
        led.add({0}, "a", cross, Fraction(2))
        led.add({1}, "b", cross[:1], Fraction(1))
        assert led.per_edge[(0, 1)] == Fraction(1, 2) + Fraction(1, 2)
        assert led.per_edge[(2, 3)] == Fraction(1, 2)
        assert led.total_mass() == 3
        assert len(led.report_lines()) == 2


class TestPreconditions:
    def test_invalid_state_rejected(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        with pytest.raises(ReplayError):
            full_replay(t, DemandState({(0, 0): Fraction(1)}), {0})

    def test_trivial_cut_rejected(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        p = DemandState({(0, 0): 1, (1, 0): -1})
        with pytest.raises(ReplayError):
            full_replay(t, p, set())
        with pytest.raises(ReplayError):
            full_replay(t, p, {0, 1})

    def test_outside_vertex_rejected(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        p = DemandState({(0, 0): 1, (50, 0): -1})
        with pytest.raises(ReplayError, match="outside the graph: 50"):
            full_replay(t, p, {0})

    def test_unrespected_demand_rejected(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        p = DemandState({(0, 0): 5, (1, 0): -5})
        with pytest.raises(ReplayError, match="1-respected"):
            full_replay(t, p, {0})

    def test_deserialized_tree_lacks_flows(self):
        g = parse_edge_list("0 1\n1 2\n")
        from treecut.tree import DecompositionTree
        t = DecompositionTree.from_json(build_basic(g).to_json())
        p = DemandState({(0, 0): 1, (2, 0): -1})
        with pytest.raises(ReplayError, match="merge partition"):
            full_replay(t, p, {0})

    def test_mismatched_child_states_rejected(self):
        rng = random.Random(1)
        g = random_graph(rng, 5, 0.9, 6)
        t = build_basic(g)
        from treecut.merge import MergePartition
        node = next(n for n in t.nodes()
                    if isinstance(n.detail, MergePartition))
        from treecut.graph import subdivide
        with pytest.raises(ReplayError, match="child states"):
            replay_merge_cluster({}, node.detail, frozenset(), 1,
                                 DemandState(), DEFAULT, ChargeLedger(),
                                 ReplayTrace())


class TestUniformizeErrors:
    """uniformize_refined names the load and the split over capacity."""

    @staticmethod
    def overloaded():
        # the cluster {0, 1} of the path 0-1-2 has one boundary split, on
        # the unit edge 1-2; it holds 7/2 of one commodity
        view = view_of(parse_edge_list("0 1 3\n1 2 1\n"), {0, 1})
        (x,) = view.x_boundary
        state = DemandState({(x, 0): Fraction(7, 2)})
        return view, x, state

    def test_load_over_boundary_capacity(self):
        view, _, state = self.overloaded()
        with pytest.raises(ReplayError, match=r"^uniformized load 7/2 "
                           r"exceeds the boundary capacity 1$"):
            uniformize_refined(state, view, frozenset(), ChargeLedger(),
                               ReplayTrace())

    def test_split_over_capacity(self, monkeypatch):
        # a boundary capacity that overstates the splits' own capacities
        # lets the load past the first check
        view, x, state = self.overloaded()
        monkeypatch.setattr(view, "boundary_capacity", lambda: 4)
        with pytest.raises(ReplayError, match=r"^uniformized split %d is "
                           r"over its capacity$" % x):
            uniformize_refined(state, view, frozenset(), ChargeLedger(),
                               ReplayTrace())


class TestSingleEdge:
    def test_shared_split_cancels_everything(self):
        # both endpoints drop their mass on the one split node, where the
        # opposite signs cancel, so no charge is ever needed
        g = parse_edge_list("0 1\n")
        p = DemandState({(0, 0): 1, (1, 0): -1})
        for build in (build_basic, build_improved):
            rep = full_replay(build(g), p, {0})
            assert rep.dem_p == 1
            assert rep.initial_dem == 0
            assert rep.ledger.total_mass() == 0
            assert rep.dem_p <= rep.ledger.total_mass() + rep.cap_cut

    def test_path_demand_pays_through_middle(self):
        g = parse_edge_list("0 1\n1 2\n")
        p = DemandState({(0, 0): 1, (2, 0): -1})
        for build in (build_basic, build_improved):
            rep = full_replay(build(g), p, {0})
            assert rep.dem_p == 1
            assert rep.dem_p <= rep.ledger.total_mass() + rep.cap_cut
            assert rep.within_envelope


class TestComponents:
    def test_disconnected_replay(self):
        g = Graph(range(4), [(0, 1, 3), (2, 3, 2)])
        p = DemandState({(0, 0): 2, (1, 0): -2, (2, 1): 1, (3, 1): -1})
        for build in (build_basic, build_improved):
            rep = full_replay(build(g), p, {0, 2})
            assert rep.dem_p == 3
            assert rep.dem_p <= rep.ledger.total_mass() + rep.cap_cut

    def test_isolated_vertex_carries_nothing(self):
        g = Graph(range(3), [(0, 1, 1)])
        p = DemandState({(0, 0): 1, (1, 0): -1})
        rep = full_replay(build_basic(g), p, {0, 2})
        assert rep.dem_p == 1


class TestCoverage:
    def test_charges_cover_initial_lifted_demand(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(12):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, 0.55, 6)
            p0 = random_demand(rng, n)
            b = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            for build in (build_basic, build_improved):
                t = build(g)
                p = scale_to_respect(t, p0)
                if p is None:
                    continue
                rep = full_replay(t, p, b)
                assert rep.ledger.total_mass() >= rep.initial_dem
                assert rep.dem_p <= rep.ledger.total_mass() + rep.cap_cut
                checked += 1
        assert checked >= 12

    def test_trace_records_cut_bounded_moves(self):
        g = parse_edge_list("0 1\n1 2\n0 2\n2 3\n")
        t = build_basic(g)
        p = scale_to_respect(t, DemandState({(0, 0): 2, (3, 0): -2}))
        rep = full_replay(t, p, {0, 1})
        assert rep.trace.steps
        for _, _, q_dem, diff_dem in rep.trace.steps:
            assert diff_dem <= q_dem


class TestRandomSweep:
    def test_both_modes_replay_clean(self):
        rng = random.Random(7)
        ran = {"basic": 0, "improved": 0}
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, 0.55, 6)
            p0 = random_demand(rng, n)
            b = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            for build, tag in ((build_basic, "basic"),
                               (build_improved, "improved")):
                t = build(g)
                p = scale_to_respect(t, p0)
                if p is None:
                    continue
                rep = full_replay(t, p, b)
                assert rep.within_envelope, (tag, rep.max_charge)
                ran[tag] += 1
        assert min(ran.values()) >= 15


def triangle_chain_route():
    """The triangle chain refines into four clusters joined by three routed
    cuts; one commodity per pair of adjacent inter-cluster splits rides the
    refine-route step to the boundary.  Returns (refinement, inter-cluster
    splits, state after, worst load, ledger, trace)."""
    res = refine(view_of(triangle_chain(), range(12)), 18)
    sub = res.view.root
    xs = sorted(sub.split(u, v) for u, v in res.inter_cluster_keys)
    entries = {}
    for k in range(len(xs) - 1):
        entries[(xs[k], k)] = Fraction(1, 2)
        entries[(xs[k + 1], k)] = Fraction(-1, 2)
    ledger, trace = ChargeLedger(), ReplayTrace()
    after, worst = route_refined_state(DemandState(entries), res,
                                       sub.lift_cut(range(6)), ledger, trace)
    return res, xs, after, worst, ledger, trace


@pytest.mark.parametrize("build", [build_basic, build_improved])
def test_ring8_replay_bytes_pinned(build, monkeypatch):
    with open(os.path.join(FIXTURES, "ring8.edges")) as fh:
        g = parse_edge_list(fh.read())
    with open(os.path.join(FIXTURES, "ring8.demands")) as fh:
        p = parse_demands(fh.read())
    # the pin holds on every scipy/LAPACK build only while no oracle call
    # reaches the float sweep backend
    sweeps = []
    sweep_best = oracle._sweep_best

    def counted(*args):
        sweeps.append(args)
        return sweep_best(*args)

    monkeypatch.setattr(oracle, "_sweep_best", counted)
    t = build(g)
    assert not sweeps
    rep = full_replay(t, p, {0, 1, 2})
    lines = rep.ledger.report_lines()
    lines += ["%s %s" % kv for kv in sorted(rep.ledger.per_edge.items())]
    lines += ["%s %s %s %s" % (sorted(m), label, q_dem, diff_dem)
              for m, label, q_dem, diff_dem in rep.trace.steps]
    lines.append(" ".join(str(x) for x in (
        rep.dem_p, rep.cap_cut, rep.initial_dem, rep.max_charge,
        rep.envelope)))
    blob = "\n".join(lines) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == RING_REPLAYS[t.mode]


def test_refine_route_step_pinned():
    """No benchmark build splits a refinement cluster, so this is the run
    of the replay's refine-route step: the triangle chain refines into four
    clusters joined by three routed cuts, and each commodity's inter-cluster
    mass is carried along the stored flows to the cluster boundary."""
    res, xs, after, worst, ledger, trace = triangle_chain_route()
    assert len(res.clusters) == 4 and xs == [17, 22, 27]
    assert sum(node.route is not None for node in res.root.walk()) == 3
    assert worst == 1
    assert len(trace.steps) == 3
    blob = repr((sorted(after.entries.items()), ledger.report_lines(),
                 sorted(ledger.per_edge.items()), trace.steps))
    assert hashlib.sha256(blob.encode()).hexdigest() == REFINE_ROUTE


@contextmanager
def fraction_kernels(monkeypatch):
    """Run the replay on the Fraction references of update, sum_states,
    leaf_init and spread; yields the count of reference calls per name."""
    calls = {}

    def counted(name, fn):
        def run(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return run

    with monkeypatch.context() as m:
        m.setattr(replay, "update", counted("update", reference_update))
        m.setattr(replay, "sum_states", counted("sum_states", reference_sum))
        m.setattr(replay, "leaf_init",
                  counted("leaf_init", reference_leaf_init))
        m.setattr(DemandMatrix, "spread",
                  staticmethod(counted("spread", reference_spread)))
        yield calls


class TestFractionKernels:
    """The replay gives the same ledger, trace and report when the integer
    demand kernels are swapped for their Fraction references."""

    @staticmethod
    def replayed(t, p, b):
        rep = full_replay(t, p, b)
        return repr((rep.ledger.report_lines(),
                     sorted(rep.ledger.per_edge.items()),
                     [(sorted(m), label, q_dem, diff_dem)
                      for m, label, q_dem, diff_dem in rep.trace.steps],
                     rep.dem_p, rep.cap_cut, rep.initial_dem,
                     rep.max_charge, rep.envelope))

    def assert_same_replays(self, monkeypatch, cases):
        want = [self.replayed(*case) for case in cases]
        with fraction_kernels(monkeypatch) as calls:
            got = [self.replayed(*case) for case in cases]
        assert got == want
        assert min(calls.get(name, 0) for name in
                   ("update", "sum_states", "leaf_init", "spread")) > 0

    def test_random_graphs_both_modes(self, monkeypatch):
        rng = random.Random(41)
        cases, graphs = [], 0
        while graphs < 40:
            n = rng.randint(3, 9)
            g = random_graph(rng, n, 0.55, 6)
            p0 = random_demand(rng, n)
            b = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            trees = [build(g) for build in (build_basic, build_improved)]
            ps = [scale_to_respect(t, p0) for t in trees]
            if None in ps:
                continue
            cases += [(t, p, b) for t, p in zip(trees, ps)]
            graphs += 1
        self.assert_same_replays(monkeypatch, cases)

    def test_rings(self, monkeypatch):
        rng = random.Random(42)
        cases = []
        for k, s in ((3, 4), (4, 4)):
            g = ring_of_cliques(k, s)
            n = k * s
            for build in (build_basic, build_improved):
                t = build(g)
                for _ in range(3):
                    p = scale_to_respect(t, random_demand(rng, n, pairs=4))
                    b = frozenset(rng.sample(range(n), n // 2))
                    cases.append((t, p, b))
        self.assert_same_replays(monkeypatch, cases)

    def test_refined_triangle_chain(self, monkeypatch):
        def routed():
            _, _, after, _, ledger, trace = triangle_chain_route()
            return repr((list(after.entries.items()), ledger.report_lines(),
                         sorted(ledger.per_edge.items()),
                         [(sorted(m), label, q_dem, diff_dem)
                          for m, label, q_dem, diff_dem in trace.steps]))

        want = routed()
        with fraction_kernels(monkeypatch) as calls:
            got = routed()
        assert got == want
        assert calls["update"] == 3
