import hashlib
import os
import random
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treecut import oracle, replay
from treecut.demand import DemandMatrix, DemandState, parse_demands
from treecut.graph import Graph, parse_edge_list
from treecut.merge import MergePartition, SeparatorFlow
from treecut.oracle import check_refined
from treecut.refine import refine
from treecut.replay import (ChargeLedger, ReplayError, ReplayTrace,
                            full_replay, replay_merge_cluster,
                            route_refined_state, uniformize_refined)
from treecut.tree import (DecompositionTree, build_basic, build_improved,
                          mincut_in_tree)
from treecut.verify import verify_quality

from corpus import (random_demand, random_graph, reference_leaf_init,
                    reference_spread, reference_sum, reference_unit_rows,
                    reference_update, refining_pairs, ring_of_cliques,
                    scale_to_respect, triangle_chain, view_of)

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
                                 DemandState(), ChargeLedger(), ReplayTrace())


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


# the states of the limit tests below sit exactly at a limit or one unit of
# 1/DEN above it
DEN = 7
ABOVE = Fraction(1, DEN)


class Reached(Exception):
    """Raised by a stub in place of the step after a check that passed."""


def merge_partition(build, inner=True):
    """The first merge partition in the ring 3x4 tree of the build whose
    cluster has inter-cluster splits, two boundary splits and, if inner,
    an inner separator split.  The tests read every split id from it, so
    they hold whichever way the sweep cuts the ring."""
    t = build(ring_of_cliques(3, 4))
    return next(p for p in (n.detail for n in t.nodes())
                if isinstance(p, MergePartition) and p.clustering.x_f
                and len(p.view.x_boundary) == 2
                and (p.inner_x_y or not inner))


def core_split(part):
    """An inter-cluster split off the separator: where core demand sits."""
    return min(part.clustering.x_f - part.x_y)


def split_cap(part, x):
    sub = part.view.root
    return sub.base.cap[sub.edge_of_split[x]]


def run_merge(monkeypatch, part, alpha, p_l=None, moves=None, q4=None):
    """replay_merge_cluster on part with its moves and flow matrices
    stubbed: the first core-side child holds p_l and every other child
    nothing; _move returns moves[label] and raises Reached(label) for any
    other label; _flow_matrix gives an empty matrix for step 1 and q4 (an
    empty one when None) for step 4."""
    moves = moves or {}
    flows = [DemandMatrix(), q4 or DemandMatrix()]

    def move(state, q, b_lift, trace, members, label):
        if label not in moves:
            raise Reached(label)
        return moves[label], 0, 1

    monkeypatch.setattr(replay, "_move", move)
    monkeypatch.setattr(replay, "_flow_matrix", lambda *args: flows.pop(0))
    states = {c: DemandState() for c in part.sub_clusters}
    if p_l is not None:
        states[part.l_parts[0]] = p_l
    return replay_merge_cluster(states, part, frozenset(), alpha,
                                DemandState(), ChargeLedger(), ReplayTrace())


def raises_exactly(message):
    return pytest.raises(ReplayError, match="^%s$" % re.escape(message))


class TestLimits:
    """Every cap the replay checks by cross-multiplying int numerators: a
    state exactly at the limit passes the check and one 1/DEN above it
    raises ReplayError with the check's message."""

    @pytest.mark.parametrize("boundary", [True, False])
    def test_input_load(self, monkeypatch, boundary):
        # alpha per unit of capacity at a boundary split, 2 alpha inside
        part = merge_partition(build_improved)
        alpha = Fraction(3, 2)
        x = min(part.view.x_boundary) if boundary else part.inner_x_y[0]
        limit = (1 if boundary else 2) * alpha * split_cap(part, x)
        with pytest.raises(Reached, match="merge-to-core"):
            run_merge(monkeypatch, part, alpha,
                      p_l=DemandState({(x, 0): limit}))
        with raises_exactly("input load %s at split %d exceeds %s"
                            % (limit + ABOVE, x, limit)):
            run_merge(monkeypatch, part, alpha,
                      p_l=DemandState({(x, 0): limit + ABOVE}))

    def test_core_leftover(self, monkeypatch):
        part = merge_partition(build_improved)
        cap = part.cap_y_tilde
        assert cap > 0
        for load in (Fraction(cap), cap + ABOVE):
            left = DemandState({(core_split(part), 0): load})
            moves = {"merge-to-core": left, "merge-spread": left}
            if load == cap:
                with pytest.raises(Reached, match="merge-to-sep"):
                    run_merge(monkeypatch, part, 1, moves=moves)
                continue
            with raises_exactly("core leftover %s exceeds the separator "
                                "capacity %d it must exit through"
                                % (load, cap)):
                run_merge(monkeypatch, part, 1, moves=moves)

    def test_separator_split(self, monkeypatch):
        part = merge_partition(build_improved)
        y = part.x_y_tilde[0]
        cap = split_cap(part, y)
        left = DemandState({(core_split(part), 0): Fraction(1, 2)})
        for load in (Fraction(cap), cap + ABOVE):
            moves = {"merge-to-core": left, "merge-spread": left,
                     "merge-to-sep": DemandState({(y, 0): load})}
            if load == cap:
                with pytest.raises(Reached, match="merge-to-boundary"):
                    run_merge(monkeypatch, part, 1, moves=moves)
                continue
            with raises_exactly("separator split %d holds %s, over its "
                                "capacity %d" % (y, load, cap)):
                run_merge(monkeypatch, part, 1, moves=moves)

    def test_separator_source(self, monkeypatch):
        # alpha = 1/4 keeps the 3 alpha cap below the split's capacity, so
        # the earlier checks pass on both states
        part = merge_partition(build_improved)
        alpha = Fraction(1, 4)
        x = part.inner_x_y[0]
        mu = part.mu_tau[x]
        limit = 3 * alpha * mu
        for load in (limit, limit + ABOVE):
            p = DemandState({(x, 0): load})
            moves = {"merge-to-core": p, "merge-spread": p,
                     "merge-to-sep": p}
            if load == limit:
                with pytest.raises(Reached, match="merge-to-boundary"):
                    run_merge(monkeypatch, part, alpha, moves=moves)
                continue
            with raises_exactly("separator source %d needs flow scale %s "
                                "over the 3*alpha cap" % (x, load / mu)):
                run_merge(monkeypatch, part, alpha, moves=moves)

    def test_boundary_receipt(self, monkeypatch):
        # the basic tree's tau is not 1, so the cap has a real denominator
        part = merge_partition(build_basic, inner=False)
        assert part.tau.denominator > 1
        alpha = Fraction(3, 2)
        xb = min(part.view.x_boundary)
        x = core_split(part)
        cap6 = 6 * alpha * part.tau * split_cap(part, xb)
        moves = {"merge-to-core": DemandState()}
        with pytest.raises(Reached, match="merge-to-boundary"):
            run_merge(monkeypatch, part, alpha, moves=moves,
                      q4=DemandMatrix({(x, xb): cap6}))
        with raises_exactly("boundary split %d received %s, over the "
                            "6*alpha*tau cap %s" % (xb, cap6 + ABOVE, cap6)):
            run_merge(monkeypatch, part, alpha, moves=moves,
                      q4=DemandMatrix({(x, xb): cap6 + ABOVE}))

    def test_uniformized_total(self):
        view, x, _ = TestUniformizeErrors.overloaded()
        state = DemandState({(x, 0): Fraction(1)})
        assert uniformize_refined(state, view, frozenset(), ChargeLedger(),
                                  ReplayTrace()) is not None
        with raises_exactly("uniformized load 8/7 exceeds the boundary "
                            "capacity 1"):
            uniformize_refined(DemandState({(x, 0): 1 + ABOVE}), view,
                               frozenset(), ChargeLedger(), ReplayTrace())

    def test_uniformized_split(self, monkeypatch):
        view, x, _ = TestUniformizeErrors.overloaded()
        monkeypatch.setattr(view, "boundary_capacity", lambda: 4)
        state = DemandState({(x, 0): Fraction(1)})
        assert uniformize_refined(state, view, frozenset(), ChargeLedger(),
                                  ReplayTrace()) is not None
        with raises_exactly("uniformized split %d is over its capacity" % x):
            uniformize_refined(DemandState({(x, 0): 1 + ABOVE}), view,
                               frozenset(), ChargeLedger(), ReplayTrace())

    def test_moved_demand(self, monkeypatch):
        # the stubbed update moves t across the cut {0}; the matrix carries
        # 1/2 across it
        q = DemandMatrix({(0, 1): Fraction(1, 2)})
        for t in (Fraction(1, 2), Fraction(1, 2) + ABOVE):
            new = DemandState({(0, 0): -t, (1, 0): t})
            monkeypatch.setattr(replay, "update", lambda state, q: new)
            trace = ReplayTrace()
            if t == Fraction(1, 2):
                got, moved, den = replay._move(DemandState(), q,
                                               frozenset({0}), trace, {0, 1},
                                               "step")
                assert got is new and Fraction(moved, den) == t
                assert trace.steps == [(frozenset({0, 1}), "step", t, t)]
                continue
            with raises_exactly("step: moved 9/14 across the cut but the "
                                "applied matrix only accounts for 1/2"):
                replay._move(DemandState(), q, frozenset({0}), trace, {0, 1},
                             "step")

    def test_one_respect(self):
        t = build_basic(ring_of_cliques(3, 4))
        unit = DemandState({(0, 0): 1, (4, 0): -1})
        verts = t.graph.vertex_set()
        cuts = [(n.members, mincut_in_tree(t, n.members)) for n in t.nodes()
                if n.members != verts]
        limit = min(mc for members, mc in cuts
                    if unit.dem_across(members))
        assert full_replay(t, unit.scaled(limit), {0}).dem_p == limit
        above = unit.scaled(limit + ABOVE)
        first = next(members for members, mc in cuts
                     if above.dem_across(members) > mc)
        with raises_exactly("demand state is not 1-respected by the tree "
                            "(violated at %r)" % sorted(first)):
            full_replay(t, above, {0})


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


def refuse_subdivide(monkeypatch):
    """Make replay.subdivide raise: a replay of an in-process tree reads
    the subdivision graph its build kept."""
    def refuse(g):
        raise AssertionError("the replay subdivided %r again" % (g,))

    monkeypatch.setattr(replay, "subdivide", refuse)


@pytest.mark.parametrize("build", [build_basic, build_improved])
def test_replay_reuses_build_subdivision(build, monkeypatch):
    """The tree keeps the SubdivisionGraph every stored phase object
    holds, and a tree read back from JSON keeps none."""
    g = ring_of_cliques(3, 4)
    t = build(g)
    for node in t.nodes():
        for obj in (node.detail, node.refinement):
            assert obj is None or obj.view.root is t.sub
    assert DecompositionTree.from_json(t.to_json()).sub is None
    refuse_subdivide(monkeypatch)
    rng = random.Random(3)
    for _ in range(3):
        p = scale_to_respect(t, random_demand(rng, 12, pairs=4))
        rep = full_replay(t, p, rng.sample(range(12), 6))
        assert rep.ledger.total_mass() >= rep.initial_dem


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
    refuse_subdivide(monkeypatch)
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


def test_refinement_splits_inside_a_build(monkeypatch):
    """A refinement that splits its cluster inside a real improved build,
    at the default Config: the tree hangs both refinement clusters, the
    routing check passes, an exhaustive verify finds no violation, and
    every replay carries the split's inter-cluster mass through the
    refine-route step, each move within the demand its matrix carries."""
    g = refining_pairs()
    t = build_improved(g)
    node = next(n for n in t.nodes() if n.refinement is not None
                and len(n.refinement.clusters) > 1)
    res = node.refinement
    pairs = (frozenset({0, 1}), frozenset({2, 3}))
    assert node.members == frozenset(range(4)) and res.clusters == pairs
    assert [(c.kind, c.members) for c in node.children] == \
        [("refine-cluster", pair) for pair in pairs]
    assert res.inter_cluster_keys == {(1, 2)}
    assert all(check_refined(out).ok for _, out in res.outcomes)
    assert res.routing.ok, res.routing.failures
    assert res.boundary_loads
    report = verify_quality(g, t)
    assert report.mode == "exhaustive" and report.ok
    routed = []
    real_route = replay.route_refined_state

    def counted(state, res, *args):
        routed.append(res)
        return real_route(state, res, *args)

    monkeypatch.setattr(replay, "route_refined_state", counted)
    rng = random.Random(5)
    moved = 0
    for _ in range(6):
        p = scale_to_respect(t, random_demand(rng, 7, pairs=3))
        rep = full_replay(t, p, rng.sample(range(7), 3))
        assert rep.within_envelope
        assert rep.ledger.total_mass() >= rep.initial_dem
        steps = [s for s in rep.trace.steps if s[1] == "refine-route"]
        for _, _, q_dem, diff_dem in steps:
            assert diff_dem <= q_dem
        moved += sum(q_dem > 0 for _, _, q_dem, _ in steps)
    assert len(routed) == 6 and all(r is res for r in routed)
    assert moved > 0


def reference_flow_matrix(loads, den, sources, flow):
    """replay._flow_matrix in Fraction, from the flow's recorded rows
    (per_source of a SeparatorFlow, rows of a refinement BinaryNode) and
    not their int form: each source x with load loads[x] / den sends its
    load times its per-unit share to each sink other than itself, a row's
    unit being its total."""
    rows = flow.per_source if isinstance(flow, SeparatorFlow) else flow.rows
    shares = reference_unit_rows(rows)
    entries = {}
    for x in sources:
        load = Fraction(loads.get(x, 0), den)
        if load:
            for sink, a in shares[x]:
                entries[(x, sink)] = load * a
    return DemandMatrix(entries)


def random_ring(rng):
    """A ring of 2-4 triangles with capacities 1..9 inside each triangle
    and 1..3 on the edges joining them."""
    k = rng.randint(2, 4)
    edges = []
    for c in range(k):
        a = 3 * c
        edges += [(a, a + 1, rng.randint(1, 9)), (a, a + 2, rng.randint(1, 9)),
                  (a + 1, a + 2, rng.randint(1, 9)),
                  (a + 2, 3 * ((c + 1) % k), rng.randint(1, 3))]
    return Graph(range(3 * k), edges)


def ring_cases():
    """Three 1-respected (tree, state, cut) triples on each of the basic
    and improved trees of rings 3x4 and 4x4."""
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
    return cases


@contextmanager
def fraction_kernels(monkeypatch):
    """Run the replay on the Fraction references of update, sum_states,
    leaf_init, spread and the flow matrix; yields the count of reference
    calls per name, and of nonempty flow matrices as "flow_matrix
    nonempty"."""
    calls = {}

    def counted(name, fn):
        def run(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return run

    def flow_matrix(*args):
        out = reference_flow_matrix(*args)
        if out.nums:
            calls["flow_matrix nonempty"] = \
                calls.get("flow_matrix nonempty", 0) + 1
        return out

    with monkeypatch.context() as m:
        m.setattr(replay, "update", counted("update", reference_update))
        m.setattr(replay, "sum_states", counted("sum_states", reference_sum))
        m.setattr(replay, "leaf_init",
                  counted("leaf_init", reference_leaf_init))
        m.setattr(DemandMatrix, "spread",
                  staticmethod(counted("spread", reference_spread)))
        m.setattr(replay, "_flow_matrix",
                  counted("flow_matrix", flow_matrix))
        yield calls


# Fraction.__new__ calls per replay over ring_cases(): 327.5 (3,930 in 12
# replays) when every replay step built its loads, cut demands and caps as
# Fractions, 62.3 (748) when each trace step still built its two amounts,
# and 36.8 (442) with the trace holding ints
FRACTIONS_PER_REPLAY = 45


def test_replay_fraction_budget(monkeypatch):
    """The replay builds a Fraction only for a message or a value the
    trace, the ledger or the report keeps, so a step that brings back
    per-load Fractions shows in this count."""
    cases = ring_cases()
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kw):
        count[0] += 1
        return new(cls, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counted))
        for case in cases:
            full_replay(*case)
    assert 0 < count[0] <= FRACTIONS_PER_REPLAY * len(cases)


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
                   ("update", "sum_states", "leaf_init", "spread",
                    "flow_matrix", "flow_matrix nonempty")) > 0

    @staticmethod
    def random_cases(rng, graphs, draw):
        """Cases on both modes' trees of `graphs` graphs from draw(rng),
        each with a random demand state scaled until both trees 1-respect
        it and a random cut; a graph a tree cannot respect is redrawn."""
        cases = []
        while graphs:
            g = draw(rng)
            n = g.vertex_count
            p0 = random_demand(rng, n)
            b = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            trees = [build(g) for build in (build_basic, build_improved)]
            ps = [scale_to_respect(t, p0) for t in trees]
            if None in ps:
                continue
            cases += [(t, p, b) for t, p in zip(trees, ps)]
            graphs -= 1
        return cases

    def test_random_graphs_both_modes(self, monkeypatch):
        """Random graphs, whose stored flows the replay never loads, and
        rings of 2-4 triangles with random capacities, whose flows it
        does."""
        cases = self.random_cases(
            random.Random(41), 40,
            lambda rng: random_graph(rng, rng.randint(3, 9), 0.55, 6))
        cases += self.random_cases(random.Random(43), 24, random_ring)
        self.assert_same_replays(monkeypatch, cases)

    def test_rings(self, monkeypatch):
        self.assert_same_replays(monkeypatch, ring_cases())

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
