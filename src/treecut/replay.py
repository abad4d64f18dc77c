"""Bottom-up demand replay and charge accounting over a decomposition tree.

Given a built tree, a fixed cut (B, W) of the base graph, and a valid
demand state that the tree 1-respects, the replay merges per-cluster demand
states up the tree exactly as the stored merge/refinement flows prescribe,
checks every intermediate claim (conservation, per-node load caps, receipt
caps), and charges the demand moved across the lifted cut to the
subdivision edges the moves are confined to.
"""

from fractions import Fraction

from .config import DEFAULT, Config
from .demand import (DemandMatrix, DemandState, invariant_check, leaf_init,
                     sum_states, update)
from .graph import (_ZERO, ClusterView, Graph, cut_capacity, edge_key,
                    subdivide)
from .merge import MergePartition
from .oracle import _log2n
from .refine import RefinementResult
from .tree import DecompositionTree, node_mincuts
from .verify import quality_envelope


class ReplayError(ValueError):
    pass


class ChargeLedger:
    """Per-edge and per-cluster charge accounting.

    Charges live on subdivision edges; each edge's charge is per unit of
    its capacity, so the demand mass an edge covers is charge(e) * cap(e).
    """

    def __init__(self):
        self.per_edge = {}
        self.clusters = []      # (members, label, charge, dem moved, cap)

    def add(self, members, label, cross, dem_diff):
        """cross: [(edge key, capacity)] of the charged subdivision edges."""
        dem_diff = Fraction(dem_diff)
        cap = sum(c for _, c in cross)
        if dem_diff == 0:
            self.clusters.append((frozenset(members), label, Fraction(0),
                                  dem_diff, cap))
            return Fraction(0)
        if cap == 0:
            raise ReplayError(
                "cluster %r moved %s demand across the cut but owns no "
                "crossing edges" % (sorted(members), dem_diff))
        charge = dem_diff / cap
        for k, _ in cross:
            self.per_edge[k] = self.per_edge.get(k, _ZERO) + charge
        self.clusters.append((frozenset(members), label, charge, dem_diff,
                              cap))
        return charge

    def total_mass(self):
        return sum((d for _, _, _, d, _ in self.clusters), Fraction(0))

    def max_per_edge(self):
        return max(self.per_edge.values(), default=Fraction(0))

    def report_lines(self):
        out = []
        for members, label, charge, dem, cap in self.clusters:
            names = ",".join(str(v) for v in sorted(members)[:8])
            if len(members) > 8:
                names += ",..."
            out.append("%-18s {%s} charge=%s dem=%s cap=%s"
                       % (label, names, charge, dem, cap))
        return out


class ReplayTrace:
    """Per-step record: which cluster, which move, how much demand the
    applied matrix carries across the cut, and how much actually moved."""

    def __init__(self):
        self.steps = []

    def record(self, members, label, q_dem, diff_dem):
        self.steps.append((frozenset(members), label, q_dem, diff_dem))


def crossing_edges(g: Graph, side):
    """[(edge key, capacity)] of g's edges with one endpoint in side."""
    side = frozenset(side)
    return [(edge_key(u, v), c) for u, v, c in g.edges
            if (u in side) != (v in side)]


def _charge(ledger, view, b_lift, label, dem_diff):
    """Charge the demand a cluster moved across the lifted cut to the
    subdivision edges of its S' that cross the cut."""
    cross = crossing_edges(view.sprime, b_lift & view.sprime.vertex_set())
    ledger.add(view.cluster, label, cross, dem_diff)


def _move(state, q, b_lift, trace, members, label):
    """Apply the matrix q to state and check the move: the difference must
    be a valid demand state, and the demand it moves across the lifted cut
    is bounded by the matrix's own cut demand.  Returns (new state, moved
    demand)."""
    new = update(state, q)
    diff = state - new
    if not diff.is_valid():
        raise ReplayError("%s: update difference is not a valid demand "
                          "state" % label)
    diff_dem = diff.dem_across(b_lift)
    q_dem = q.dem_across(b_lift)
    if diff_dem > q_dem:
        raise ReplayError("%s: moved %s across the cut but the applied "
                          "matrix only accounts for %s"
                          % (label, diff_dem, q_dem))
    trace.record(members, label, q_dem, diff_dem)
    return new, diff_dem


def _flow_matrix(loads, sources, rows, unit):
    """Scale a stored flow to the load present: rows[x] lists the
    (sink, amount) of the flow that carries unit[x] out of source x, and
    each source x with a load sends amount * load / unit[x] to each sink
    other than itself.  The amounts are summed per (source, sink) pair and
    the matrix is built from them in one call."""
    entries = {}
    for x in sources:
        load = loads.get(x, _ZERO)
        if load == 0:
            continue
        scale = load / unit[x]
        for sink, amt in rows[x]:
            if sink != x and amt:
                entries[(x, sink)] = entries.get((x, sink), _ZERO) + \
                    amt * scale
    return DemandMatrix(entries)


def replay_merge_cluster(child_states, part: MergePartition, b_lift, alpha,
                         original, cfg: Config, ledger, trace):
    """Merge the sub-cluster demand states of one cluster into a state on
    the cluster boundary, step by step along the stored separator flows.

    child_states maps each sub-cluster frozenset to its demand state;
    `original` is the base demand state the invariant conserves against.
    Returns (new state, new load factor).
    """
    alpha = Fraction(alpha)
    view = part.view
    sub = view.root
    base_cap = sub.base.cap
    s = view.cluster
    if set(child_states) != set(part.sub_clusters):
        raise ReplayError("child states do not match the merge partition")
    x_f = part.clustering.x_f
    x_b = view.x_boundary
    x_y = part.x_y

    def unit_cap(x):
        return base_cap[sub.edge_of_split[x]]

    p_l = sum_states(child_states[c] for c in part.l_parts)
    p_r = sum_states(child_states[c] for c in part.r_parts)
    before = p_l + p_r

    # a boundary split belongs to one sub-cluster; an inner split to two
    for x, load in before.loads().items():
        limit = (alpha if x in x_b else 2 * alpha) * unit_cap(x)
        if load > limit:
            raise ReplayError("input load %s at split %r exceeds %s"
                              % (load, x, limit))

    # step 1: move the core side's separator loads onto the inter-cluster
    # splits, scaling each stored per-source flow to the load present
    q1 = _flow_matrix(p_l.loads(), sorted(x_y), part.flow_to_f.per_source,
                      part.mu_tau)
    p_l, _ = _move(p_l, q1, b_lift, trace, s, "merge-to-core")

    # step 2: cancel opposite masses by spreading over the inter-cluster
    # splits, proportionally to capacity
    if p_l.total_load() > 0:
        if not x_f:
            raise ReplayError("core demand left but no inter-cluster splits")
        q2 = DemandMatrix.spread(p_l.restrict_vertices(x_f).loads(), x_f,
                                 unit_cap)
        p_l, _ = _move(p_l, q2, b_lift, trace, s, "merge-spread")

    # the surviving mass must fit the capacity of the separator edges that
    # are not boundary edges touching the far side
    b_r_keys = {edge_key(u, v) for u, v, _ in view.boundary_edges
                if (u in part.r_side) or (v in part.r_side)}
    y_tilde = part.y_keys - b_r_keys
    cap_y_tilde = sum((Fraction(base_cap[k]) for k in y_tilde), Fraction(0))
    if p_l.total_load() > cap_y_tilde:
        raise ReplayError("core leftover %s exceeds the separator capacity "
                          "%s it must exit through"
                          % (p_l.total_load(), cap_y_tilde))

    # step 3: distribute the leftover onto those separator splits,
    # proportionally to capacity
    if p_l.total_load() > 0:
        x_y_tilde = sorted(sub.split(u, v) for u, v in y_tilde)
        q3 = DemandMatrix.spread(p_l.loads(), x_y_tilde, unit_cap)
        p_l, _ = _move(p_l, q3, b_lift, trace, s, "merge-to-sep")
        loads3 = p_l.loads()
        for y in x_y_tilde:
            load = loads3.get(y, _ZERO)
            if load > unit_cap(y):
                raise ReplayError("separator split %r holds %s, over its "
                                  "capacity %s" % (y, load, unit_cap(y)))

    # step 4: everything still on non-boundary separator splits rides the
    # stored separator-to-boundary flow
    p4 = p_l + p_r
    loads4 = p4.loads()
    sources4 = sorted(x_y - x_b)
    for x in sources4:
        load = loads4.get(x, _ZERO)
        if load > 3 * alpha * part.mu_tau[x]:
            raise ReplayError("separator source %r needs flow scale %s over "
                              "the 3*alpha cap" % (x, load / part.mu_tau[x]))
    q4 = _flow_matrix(loads4, sources4, part.flow_to_b.per_source,
                      part.mu_tau)
    received = {}
    for (_, v), a in q4.nums.items():
        received[v] = received.get(v, 0) + a
    for xb, got in received.items():
        cap6 = 6 * alpha * part.tau * unit_cap(xb)
        if got > cap6 * q4.den:
            raise ReplayError("boundary split %r received %s, over the "
                              "6*alpha*tau cap %s"
                              % (xb, Fraction(got, q4.den), cap6))
    after, _ = _move(p4, q4, b_lift, trace, s, "merge-to-boundary")

    alpha_out = alpha * (1 + cfg.replay_tau_c * part.tau)
    ok, why = invariant_check(after, view, original, alpha_out)
    if not ok:
        raise ReplayError("merged state breaks the invariant: %s" % why)
    diff = before - after
    if not diff.is_valid():
        raise ReplayError("merge before/after difference is not valid")
    _charge(ledger, view, b_lift, "merge", diff.dem_across(b_lift))
    return after, alpha_out


def uniformize_refined(state, view: ClusterView, b_lift, ledger, trace):
    """Spread a refinement cluster's state over its boundary splits
    (capacity weighted).  After the cancellation the leftover must fit the
    boundary capacity, so every split carries at most one unit per unit of
    capacity.  Returns the new state."""
    s = view.cluster
    sub = view.root
    base_cap = sub.base.cap
    if not view.x_boundary:
        if state.total_load() > 0:
            raise ReplayError("boundaryless cluster %r holds demand"
                              % sorted(s))
        return state
    if state.total_load() == 0:
        return state
    q = DemandMatrix.spread(state.restrict_vertices(view.x_boundary).loads(),
                            view.x_boundary,
                            lambda x: base_cap[sub.edge_of_split[x]])
    new, dem_diff = _move(state, q, b_lift, trace, s, "refine-uniformize")
    cap_b = Fraction(view.boundary_capacity())
    if new.total_load() > cap_b:
        raise ReplayError("uniformized load %s exceeds the boundary "
                          "capacity %s" % (new.total_load(), cap_b))
    loads = new.loads()
    for x in view.x_boundary:
        if loads.get(x, _ZERO) > base_cap[sub.edge_of_split[x]]:
            raise ReplayError("uniformized split %r is over its capacity"
                              % (x,))
    _charge(ledger, view, b_lift, "refine-uniformize", dem_diff)
    return new


def route_refined_state(state, res: RefinementResult, b_lift, ledger, trace):
    """Carry the mass sitting on a refined cluster's inter-cluster splits
    to its boundary, one binary-tree cut at a time along the stored flows.

    Returns (new state, measured per-unit load on the boundary)."""
    sub = res.view.root
    base_cap = sub.base.cap
    s = res.view.cluster
    after = state
    for node in res.root.walk():
        if not node.cut_keys or node.route is None:
            continue
        q = _flow_matrix(after.loads(), node.rows, node.rows, node.unit)
        if q.nums:
            after, _ = _move(after, q, b_lift, trace, s, "refine-route")
    stray = after.support_vertices() - res.view.x_boundary
    if stray:
        raise ReplayError("refinement routing left demand off the cluster "
                          "boundary: %r" % sorted(stray))
    diff = state - after
    if not diff.is_valid():
        raise ReplayError("routing difference is not valid")
    _charge(ledger, res.view, b_lift, "refine-route", diff.dem_across(b_lift))
    worst = Fraction(1)
    for x, load in after.loads().items():
        worst = max(worst, load / base_cap[sub.edge_of_split[x]])
    return after, worst


class ReplayReport:
    def __init__(self, ledger, trace, dem_p, cap_cut, initial_dem,
                 max_charge, envelope):
        self.ledger = ledger
        self.trace = trace
        self.dem_p = dem_p              # demand across the base cut
        self.cap_cut = cap_cut          # capacity of the base cut
        self.initial_dem = initial_dem  # lifted demand after leaf splitting
        self.max_charge = max_charge    # worst per-unit edge charge
        self.envelope = envelope        # declared per-edge envelope

    @property
    def within_envelope(self):
        return self.max_charge <= self.envelope


def full_replay(t: DecompositionTree, p: DemandState, b,
                cfg: Config = DEFAULT) -> ReplayReport:
    """Replay a demand state the tree 1-respects, bottom to top, and return
    the accumulated charge ledger.  Every structural claim along the way is
    hard-asserted; a violation raises ReplayError.

    Needs a tree built in-process (the stored flows are not serialized).
    """
    g = t.graph
    b = frozenset(b)
    verts = g.vertex_set()
    if not b or b >= verts or not b <= verts:
        raise ReplayError("cut side must be a proper nonempty vertex subset")
    outside = sorted(p.support_vertices() - verts)
    if outside:
        raise ReplayError("demand state has mass at vertices outside the "
                          "graph: %s" % ", ".join(map(str, outside)))
    if not p.is_valid():
        raise ReplayError("demand state is not valid")
    scale, nodes, mcs = node_mincuts(t)
    for node, mc in zip(nodes, mcs):
        d = p.dem_across(node.members)
        if d.numerator * scale > mc * d.denominator:
            raise ReplayError("demand state is not 1-respected by the tree "
                              "(violated at %r)" % sorted(node.members))

    # every stored phase object shares one subdivision graph; reuse it
    sub = None
    for node in t.nodes():
        obj = node.detail or node.refinement
        if isinstance(obj, (MergePartition, RefinementResult)):
            sub = obj.view.root
            break
    if sub is None:
        sub = subdivide(g)
    b_lift = sub.lift_cut(b)

    leaf_states = leaf_init(p, sub)
    initial = sum_states(leaf_states.values())
    dem_p = p.dem_across(b)
    cap_cut = Fraction(cut_capacity(g, b))
    initial_dem = initial.dem_across(b_lift)
    if dem_p > initial_dem + cap_cut:
        raise ReplayError("leaf splitting lost demand across the cut")

    ledger = ChargeLedger()
    trace = ReplayTrace()

    def state_of(node):
        """(state, load factor) for a node carrying a merge partition.  An
        improved node first uniformizes each refinement cluster and routes
        a split sub-cluster's inter-cluster mass to its boundary."""
        if len(node.members) == 1:
            return leaf_states[next(iter(node.members))], Fraction(1)
        part = node.detail
        if not isinstance(part, MergePartition):
            raise ReplayError("node %r carries no merge partition (was the "
                              "tree built in-process?)"
                              % sorted(node.members))
        pool = {}
        for c in node.children:
            pool[c.members] = c
            for cc in c.children:
                pool[cc.members] = cc
        # every child state first, in sub-cluster order; the moves below
        # write the ledger and trace in the order they run
        states, split, alpha_in = {}, {}, Fraction(1)
        for s_i in part.sub_clusters:
            if s_i not in pool:
                raise ReplayError("tree node for sub-cluster %r is missing"
                                  % sorted(s_i))
            c = pool[s_i]
            res = c.refinement
            if res is not None and len(res.clusters) > 1:
                split[s_i] = res
                for r_node in c.children:
                    states[r_node.members] = state_of(r_node)[0]
            else:
                states[s_i], a = state_of(c)
                alpha_in = max(alpha_in, a)
        if t.mode == "basic":
            return replay_merge_cluster(states, part, b_lift, alpha_in, p,
                                        cfg, ledger, trace)
        # an improved merge starts from the load factor its routing leaves
        sub_states, alpha_in = {}, Fraction(1)
        for s_i in part.sub_clusters:
            res = split.get(s_i)
            total = sum_states(
                uniformize_refined(states[r], part.view.root.view(r), b_lift,
                                   ledger, trace)
                for r in (res.clusters if res is not None else [s_i]))
            if res is not None:
                total, a = route_refined_state(total, res, b_lift, ledger,
                                               trace)
                alpha_in = max(alpha_in, a)
            sub_states[s_i] = total
        after, alpha_out = replay_merge_cluster(
            sub_states, part, b_lift, alpha_in, p, cfg, ledger, trace)
        if alpha_out > cfg.alpha_improved_cap:
            raise ReplayError("combined load factor %s exceeds the "
                              "configured cap %s"
                              % (alpha_out, cfg.alpha_improved_cap))
        return after, alpha_out

    if t.root.detail is None and t.root.children \
            and all(c.kind == "component" for c in t.root.children):
        tops = t.root.children
    else:
        tops = [t.root]
    for top in tops:
        final, _ = state_of(top)
        if not final.is_zero():
            raise ReplayError("replay left nonzero demand at the top of %r"
                              % sorted(top.members))

    total = ledger.total_mass()
    if total < initial_dem:
        raise ReplayError("accumulated charges %s do not cover the initial "
                          "demand %s across the cut" % (total, initial_dem))
    if dem_p > total + cap_cut:
        raise ReplayError("final coverage inequality failed")

    n = g.vertex_count
    if t.mode == "basic":
        envelope = cfg.quality_C * _log2n(n) ** 3
    else:
        envelope = quality_envelope(n, cfg)
    return ReplayReport(ledger, trace, dem_p, cap_cut, initial_dem,
                        ledger.max_per_edge(), envelope)
