"""Bottom-up demand replay and charge accounting over a decomposition tree.

Given a built tree, a fixed cut (B, W) of the base graph, and a valid
demand state that the tree 1-respects, the replay merges per-cluster demand
states up the tree exactly as the stored merge/refinement flows prescribe,
checks every intermediate claim (conservation, per-node load caps, receipt
caps), and charges the demand moved across the lifted cut to the
subdivision edges the moves are confined to.

The replay runs on the int numerators of the demand kernels: loads and
cut demands are read over their state's denominator and every cap is
checked by cross-multiplication, so a Fraction is built only for an error
message or a value the trace, the ledger or the report keeps.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .config import DEFAULT, Config
from .demand import (DemandMatrix, DemandState, _flow_matrix,
                     invariant_check, leaf_init, sum_states, update)
from .graph import _ZERO, ClusterView, crossing, cut_capacity, subdivide
from .merge import MergePartition
from .oracle import _log2n
from .refine import RefinementResult
from .tree import DecompositionTree, node_mincuts
from .verify import quality_envelope


_ONE = Fraction(1)
# Load growth per merge replay: alpha' = alpha * (1 + REPLAY_TAU_C * tau).
REPLAY_TAU_C = 6
# Per-cluster load cap asserted after the improved-mode uniformization and
# boundary routing reset.
ALPHA_IMPROVED_CAP = Fraction(8)


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
        """cross: [(edge key, capacity)] of the charged subdivision edges;
        dem_diff: the Fraction of demand moved."""
        cap = sum(c for _, c in cross)
        if dem_diff == 0:
            self.clusters.append((frozenset(members), label, _ZERO,
                                  dem_diff, cap))
            return _ZERO
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
        """The summed demand moved, added as ints over one denominator."""
        dems = [d for _, _, _, d, _ in self.clusters]
        den = lcm(*(d.denominator for d in dems))
        return Fraction(sum(d.numerator * (den // d.denominator)
                            for d in dems), den)

    def max_per_edge(self):
        return max(self.per_edge.values(), default=_ZERO)

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
    applied matrix carries across the cut, and how much actually moved.
    A step keeps both amounts as int numerators and denominators, and
    `steps` makes their Fractions when it is read."""

    def __init__(self):
        self._steps = []

    def record(self, members, label, q_num, q_den, diff_num, diff_den):
        self._steps.append((frozenset(members), label, q_num, q_den,
                            diff_num, diff_den))

    @property
    def steps(self):
        """[(members, label, carried demand, moved demand)]."""
        return [(m, label, Fraction(qn, qd), Fraction(dn, dd))
                for m, label, qn, qd, dn, dd in self._steps]


def _charge(ledger, view, b_lift, label, dem_diff):
    """Charge the demand a cluster moved across the lifted cut to the
    subdivision edges of its S' that cross the cut."""
    cross = [((u, v), c) for u, v, c in crossing(view.sprime, b_lift)]
    ledger.add(view.cluster, label, cross, dem_diff)


def _move(state, q, b_lift, trace, members, label):
    """Apply the matrix q to state and check the move: the difference must
    be a valid demand state, and the demand it moves across the lifted cut
    is bounded by the matrix's own cut demand.  Returns (new state, moved
    demand numerator, its denominator)."""
    new = update(state, q)
    diff = state - new
    if not diff.is_valid():
        raise ReplayError("%s: update difference is not a valid demand "
                          "state" % label)
    moved, carried = diff.dem_num(b_lift), q.dem_num(b_lift)
    if moved * q.den > carried * diff.den:
        raise ReplayError("%s: moved %s across the cut but the applied "
                          "matrix only accounts for %s"
                          % (label, Fraction(moved, diff.den),
                             Fraction(carried, q.den)))
    trace.record(members, label, carried, q.den, moved, diff.den)
    return new, moved, diff.den


def replay_merge_cluster(child_states, part: MergePartition, b_lift, alpha,
                         original, ledger, trace):
    """Merge the sub-cluster demand states of one cluster into a state on
    the cluster boundary, step by step along the stored separator flows.

    child_states maps each sub-cluster frozenset to its demand state;
    `original` is the base demand state the invariant conserves against.
    Returns (new state, new load factor).
    """
    an, ad = alpha.numerator, alpha.denominator
    view = part.view
    split_cap = view.root.split_cap
    s = view.cluster
    if set(child_states) != set(part.sub_clusters):
        raise ReplayError("child states do not match the merge partition")
    x_f = part.clustering.x_f
    x_b = view.x_boundary

    p_l = sum_states(child_states[c] for c in part.l_parts)
    p_r = sum_states(child_states[c] for c in part.r_parts)
    before = p_l + p_r

    # a boundary split belongs to one sub-cluster; an inner split to two
    den = before.den
    for x, load in before.load_nums().items():
        limit = (an if x in x_b else 2 * an) * split_cap[x]
        if load * ad > limit * den:
            raise ReplayError("input load %s at split %r exceeds %s"
                              % (Fraction(load, den), x, Fraction(limit, ad)))

    # step 1: move the core side's separator loads onto the inter-cluster
    # splits, scaling each stored per-source flow to the load present
    q1 = _flow_matrix(p_l.load_nums(), p_l.den, part.sorted_x_y,
                      part.flow_to_f)
    p_l, _, _ = _move(p_l, q1, b_lift, trace, s, "merge-to-core")

    # step 2: cancel opposite masses by spreading over the inter-cluster
    # splits, proportionally to capacity
    if p_l.nums:
        if not x_f:
            raise ReplayError("core demand left but no inter-cluster splits")
        loads = p_l.load_nums()
        q2 = DemandMatrix.spread({x: n for x, n in loads.items() if x in x_f},
                                 x_f, split_cap.__getitem__, p_l.den)
        p_l, _, _ = _move(p_l, q2, b_lift, trace, s, "merge-spread")

    # the surviving mass must fit the capacity of the separator edges that
    # are not boundary edges touching the far side
    if p_l.total_num() > part.cap_y_tilde * p_l.den:
        raise ReplayError("core leftover %s exceeds the separator capacity "
                          "%s it must exit through"
                          % (p_l.total_load(), part.cap_y_tilde))

    # step 3: distribute the leftover onto those separator splits,
    # proportionally to capacity
    if p_l.nums:
        q3 = DemandMatrix.spread(p_l.load_nums(), part.x_y_tilde,
                                 split_cap.__getitem__, p_l.den)
        p_l, _, _ = _move(p_l, q3, b_lift, trace, s, "merge-to-sep")
        loads3, den = p_l.load_nums(), p_l.den
        for y in part.x_y_tilde:
            load = loads3.get(y, 0)
            if load > split_cap[y] * den:
                raise ReplayError("separator split %r holds %s, over its "
                                  "capacity %s"
                                  % (y, Fraction(load, den), split_cap[y]))

    # step 4: everything still on non-boundary separator splits rides the
    # stored separator-to-boundary flow
    p4 = p_l + p_r
    loads4, den = p4.load_nums(), p4.den
    for x in part.inner_x_y:
        load = loads4.get(x, 0)
        mu = part.mu_tau[x]
        if load * ad * mu.denominator > 3 * an * mu.numerator * den:
            raise ReplayError("separator source %r needs flow scale %s over "
                              "the 3*alpha cap"
                              % (x, Fraction(load, den) / mu))
    q4 = _flow_matrix(loads4, den, part.inner_x_y, part.flow_to_b)
    received = {}
    for (_, v), a in q4.nums.items():
        received[v] = received.get(v, 0) + a
    # the cap 6 * alpha * tau * split_cap[xb] is c6n * split_cap[xb] / c6d
    tau = part.tau
    c6n, c6d = 6 * an * tau.numerator, ad * tau.denominator
    for xb, got in received.items():
        cap6 = c6n * split_cap[xb]
        if got * c6d > cap6 * q4.den:
            raise ReplayError("boundary split %r received %s, over the "
                              "6*alpha*tau cap %s"
                              % (xb, Fraction(got, q4.den),
                                 Fraction(cap6, c6d)))
    after, _, _ = _move(p4, q4, b_lift, trace, s, "merge-to-boundary")

    # alpha * (1 + REPLAY_TAU_C * tau)
    alpha_out = Fraction(
        an * (tau.denominator + REPLAY_TAU_C * tau.numerator),
        ad * tau.denominator)
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
    split_cap = view.root.split_cap
    x_b = view.x_boundary
    if not x_b:
        if state.nums:
            raise ReplayError("boundaryless cluster %r holds demand"
                              % sorted(s))
        return state
    if not state.nums:
        return state
    loads = state.load_nums()
    q = DemandMatrix.spread({x: n for x, n in loads.items() if x in x_b},
                            x_b, split_cap.__getitem__, state.den)
    new, moved, den = _move(state, q, b_lift, trace, s, "refine-uniformize")
    cap_b = view.boundary_capacity()
    if new.total_num() > cap_b * new.den:
        raise ReplayError("uniformized load %s exceeds the boundary "
                          "capacity %s" % (new.total_load(), Fraction(cap_b)))
    loads = new.load_nums()
    for x in x_b:
        if loads.get(x, 0) > split_cap[x] * new.den:
            raise ReplayError("uniformized split %r is over its capacity"
                              % (x,))
    _charge(ledger, view, b_lift, "refine-uniformize", Fraction(moved, den))
    return new


def route_refined_state(state, res: RefinementResult, b_lift, ledger, trace):
    """Carry the mass sitting on a refined cluster's inter-cluster splits
    to its boundary, one binary-tree cut at a time along the stored flows.

    Returns (new state, measured per-unit load on the boundary)."""
    split_cap = res.view.root.split_cap
    s = res.view.cluster
    after = state
    for node in res.root.walk():
        if not node.cut_keys or node.route is None:
            continue
        q = _flow_matrix(after.load_nums(), after.den, node.unit, node)
        if q.nums:
            after, _, _ = _move(after, q, b_lift, trace, s, "refine-route")
    stray = after.support_vertices() - res.view.x_boundary
    if stray:
        raise ReplayError("refinement routing left demand off the cluster "
                          "boundary: %r" % sorted(stray))
    diff = state - after
    if not diff.is_valid():
        raise ReplayError("routing difference is not valid")
    _charge(ledger, res.view, b_lift, "refine-route", diff.dem_across(b_lift))
    # the largest load per unit of capacity, and at least 1, as wn / wd
    wn, wd, den = 1, 1, after.den
    for x, load in after.load_nums().items():
        cap = split_cap[x] * den
        if load * wd > wn * cap:
            wn, wd = load, cap
    return after, Fraction(wn, wd)


@lru_cache(maxsize=64)
def _envelope(mode, n, cfg):
    """The per-edge charge envelope of an n-vertex tree of the mode:
    quality_C * (log2 n)^3 for basic trees, the quality envelope for
    improved ones.  Kept per (mode, n, cfg): it costs four rlog2 calls."""
    if mode == "basic":
        return cfg.quality_C * _log2n(n) ** 3
    return quality_envelope(n, cfg)


class ReplayReport:
    def __init__(self, ledger, trace, dem_p, cap_cut, initial_dem,
                 max_charge, envelope):
        self.ledger = ledger
        self.trace = trace
        self.dem_p = dem_p              # demand across the base cut
        self.cap_cut = cap_cut          # capacity of the base cut (int)
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
    nodes, mcs = node_mincuts(t)
    for node, mc in zip(nodes, mcs):
        if p.dem_num(node.members) > mc * p.den:
            raise ReplayError("demand state is not 1-respected by the tree "
                              "(violated at %r)" % sorted(node.members))

    # the stored phase objects share the build's subdivision graph
    sub = t.sub or subdivide(g)
    b_lift = sub.lift_cut(b)

    leaf_states = leaf_init(p, sub)
    initial = sum_states(leaf_states.values())
    dem_p = p.dem_across(b)
    cap_cut = cut_capacity(g, b)
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
            return leaf_states[next(iter(node.members))], _ONE
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
        states, split, alpha_in = {}, {}, _ONE
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
                                        ledger, trace)
        # an improved merge starts from the load factor its routing leaves
        sub_states, alpha_in = {}, _ONE
        for s_i in part.sub_clusters:
            res = split.get(s_i)
            total = sum_states(
                uniformize_refined(states[r], sub.view(r), b_lift, ledger,
                                   trace)
                for r in (res.clusters if res is not None else [s_i]))
            if res is not None:
                total, a = route_refined_state(total, res, b_lift, ledger,
                                               trace)
                alpha_in = max(alpha_in, a)
            sub_states[s_i] = total
        after, alpha_out = replay_merge_cluster(
            sub_states, part, b_lift, alpha_in, p, ledger, trace)
        if alpha_out > ALPHA_IMPROVED_CAP:
            raise ReplayError("combined load factor %s exceeds the "
                              "declared cap %s"
                              % (alpha_out, ALPHA_IMPROVED_CAP))
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

    return ReplayReport(ledger, trace, dem_p, cap_cut, initial_dem,
                        ledger.max_per_edge(),
                        _envelope(t.mode, g.vertex_count, cfg))
