"""The two-level merge phase of a cluster.

Level 1 produces a balanced clustering Z_1..Z_z of S whose inter-cluster
edge split nodes expand in the subdivision of G[S]; level 2 cuts S into a
core L (separated from the cluster boundary) and a remainder R by an exact
max-flow separator, and intersects with the Z_i to get sub-clusters.
"""

from fractions import Fraction
from functools import cached_property

from .demand import _unit_rows
from .graph import (ClusterView, Graph, components_without, crossing,
                    edge_key)
from .flow import (FlowNetwork, FlowSolution, RouteResult, escalate,
                   max_flow, path_decomposition)
from .oracle import cut_or_expander, _log2n


# Balanced clustering: the oracle is called at phi = MERGE_PHI_COEFF /
# log2(n); with the peeling balance guarantees this makes every accepted
# separator at most 1/2-sparse, so each shrink multiplies the inter-cluster
# edge capacity by at most (1 - MERGE_SHRINK_COEFF / log2(n)).
MERGE_PHI_COEFF = Fraction(1, 6)
MERGE_SHRINK_COEFF = Fraction(1, 8)


class MergeError(ValueError):
    pass


def is_balanced_clustering(g_s: Graph, f_keys):
    """Do the components of G[S] minus f cover at most 2/3 of S each?"""
    comps = components_without(g_s, {edge_key(*k) for k in f_keys})
    n = g_s.vertex_count
    return all(3 * len(comp) <= 2 * n for comp in comps), comps


def solve_attachment_flow(g: Graph, sources, sinks):
    """Saturate all sources into the sinks, escalating the congestion cap
    (the sink caps are never boosted); None when no cap up to the limit
    suffices."""
    total = sum((Fraction(a) for a in sources.values()), Fraction(0))

    def solve(caps, cap):
        sol, _ = max_flow(FlowNetwork(g, sources, caps, edge_scale=cap))
        return RouteResult(sol.value == total, sol)

    return escalate(solve, sinks, boost_limit=1)


class ShrinkResult:
    """Outcome of one shrink step: either a smaller F, or an expanding one."""

    def __init__(self, case, f_new=None, a_edges=None, c_edges=None,
                 outcome=None, alpha=None):
        self.case = case              # 1 = shrank, 2 = expanding
        self.f_new = f_new
        self.a_edges = a_edges        # expanding core edge set
        self.c_edges = c_edges        # added separator edges
        self.outcome = outcome        # the oracle outcome consumed
        self.alpha = alpha            # declared expansion of X_{A u C}


def _edge_preimages(view: ClusterView, gsub: Graph, side):
    """(A, C): inner edges with split node in `side`; edges whose split node
    touches a crossing edge of the cut (side, rest) in the subdivision."""
    side = frozenset(side)
    a_edges = set()
    c_edges = set()
    for u, v in view.inner_keys:
        x = view.root.split(u, v)
        if x in side:
            a_edges.add((u, v))
    for u, v, _ in crossing(gsub, side):
        x = u if view.root.is_split(u) else v
        c_edges.add(view.root.edge_of_split[x])
    return frozenset(a_edges), frozenset(c_edges)


def _cap_of(view: ClusterView, keys):
    return sum(view.root.base.cap[edge_key(*k)] for k in keys)


def shrink_step(view: ClusterView, f_keys):
    """One application of the shrink-or-certify step to the edge set F."""
    f_keys = frozenset(edge_key(*k) for k in f_keys)
    ok, _ = is_balanced_clustering(view.graph_in, f_keys)
    if not ok:
        raise MergeError("shrink_step requires F to induce a balanced clustering")
    gsub = view.sub_in
    logn = _log2n(gsub.vertex_count)
    phi = MERGE_PHI_COEFF / logn
    mu = view.split_measure(f_keys)
    outcome = cut_or_expander(gsub, phi, mu)
    threshold = outcome.threshold   # = MERGE_PHI_COEFF
    if outcome.tag == "Expander":
        return ShrinkResult(2, a_edges=f_keys, c_edges=frozenset(),
                            outcome=outcome, alpha=threshold)
    a_side = outcome.residual
    a_edges, c_edges = _edge_preimages(view, gsub, a_side)
    f_in_a = f_keys & a_edges
    f_out_a = f_keys - a_edges
    cand1 = f_in_a | c_edges
    cand2 = f_out_a | c_edges
    ok1, _ = is_balanced_clustering(view.graph_in, cand1)
    ok2, _ = is_balanced_clustering(view.graph_in, cand2)
    if not ok1 and not ok2:
        raise MergeError("neither separator candidate induces a balanced "
                         "clustering (contract violation)")
    if outcome.tag == "BalancedCut":
        # both candidates shrink; pick the smaller (ties: keep the A side)
        if ok1 and (not ok2 or _cap_of(view, cand1) <= _cap_of(view, cand2)):
            chosen = cand1
        else:
            chosen = cand2
        return ShrinkResult(1, f_new=chosen, outcome=outcome)
    # UnbalancedExpander: prefer the strong shrink, else certify expansion
    if ok2:
        return ShrinkResult(1, f_new=cand2, outcome=outcome)
    # cand1 = (F n A) u C expands once C routes into X_{F n A}
    sources = {view.root.split(u, v): Fraction(view.root.base.cap[(u, v)])
               for u, v in sorted(c_edges)}
    sinks = {view.root.split(u, v): Fraction(view.root.base.cap[(u, v)])
             for u, v in sorted(f_in_a)}
    flow = solve_attachment_flow(gsub, sources, sinks)
    if flow is None:
        raise MergeError("separator-to-core flow infeasible at every "
                         "congestion cap")
    phi_core = threshold  # certified expansion of X_{F n A}
    a_const = Fraction(1)            # per-unit sink receipt
    c_const = flow.congestion_cap
    alpha = phi_core / (2 * (a_const + 1 + c_const * phi_core))
    return ShrinkResult(2, a_edges=f_in_a, c_edges=c_edges,
                        outcome=outcome, alpha=alpha)


class BalancedClustering:
    def __init__(self, view, components, f_keys, f_tilde, alpha_declared,
                 outcomes, iterations):
        self.view = view
        self.components = tuple(sorted((frozenset(z) for z in components),
                                       key=min))
        self.f_keys = frozenset(f_keys)          # actual inter-cluster edges
        self.f_tilde = frozenset(f_tilde)        # terminal F (superset)
        self.alpha_declared = alpha_declared
        self.outcomes = outcomes
        self.iterations = iterations

    @property
    def x_f(self):
        return frozenset(self.view.root.split(u, v) for u, v in self.f_keys)


def merge_phase_1(view: ClusterView) -> BalancedClustering:
    s = view.cluster
    if len(s) == 1:
        return BalancedClustering(view, [s], frozenset(), frozenset(),
                                  None, [], 0)
    f = frozenset(view.inner_keys)
    outcomes = []
    if not f:
        comps = view.graph_in.components()
        return BalancedClustering(view, comps, frozenset(), frozenset(),
                                  None, outcomes, 0)
    # The loop needs no iteration bound.  c(F) is an int, at least 1 while
    # F is not empty (capacities are ints >= 1), and the contraction check
    # makes each shrink step multiply it by at most shrink < 1, so F would
    # be empty after log_{1/shrink} c(F) + 1 steps.  A step on an empty F
    # fails the balance precondition or meets a zero measure, which the
    # oracle answers Expander: either way the loop ends.
    shrink = 1 - MERGE_SHRINK_COEFF / _log2n(view.sub_in.vertex_count)
    iters = 0
    while True:
        iters += 1
        res = shrink_step(view, f)
        outcomes.append(res.outcome)
        if res.case == 2:
            break
        if _cap_of(view, res.f_new) > _cap_of(view, f) * shrink:
            raise MergeError("shrink step failed its contraction bound")
        f = res.f_new
    f_tilde = frozenset(res.a_edges | res.c_edges)
    ok, comps = is_balanced_clustering(view.graph_in, f_tilde)
    if not ok:
        raise MergeError("terminal F does not induce a balanced clustering")
    # re-tighten F to the actual inter-cluster edges
    comp_of = {}
    for i, z in enumerate(comps):
        for v in z:
            comp_of[v] = i
    f_final = frozenset((u, v) for u, v in view.inner_keys
                        if comp_of[u] != comp_of[v])
    if not f_final <= f_tilde:
        raise MergeError("re-tightened F escaped the terminal F")
    return BalancedClustering(view, comps, f_final, f_tilde, res.alpha,
                              outcomes, iters)


class SeparatorFlow:
    """Per-separator-node transfers derived from the exact max flow."""

    def __init__(self, per_source, congestion, sink_in, unit_rows):
        self.per_source = per_source      # x_y -> [(target, amount)]
        self.congestion = congestion
        self.sink_in = sink_in            # target -> received amount
        self.unit_rows = unit_rows        # int per-unit rows, made at build


class MergePartition:
    def __init__(self, view, clustering, tau, x_y, y_keys, l_side, r_side,
                 flow_to_b, flow_to_f, mu_tau):
        self.view = view
        self.clustering = clustering
        self.tau = Fraction(tau)
        self.x_y = frozenset(x_y)
        self.y_keys = frozenset(y_keys)
        self.l_side = frozenset(l_side)
        self.r_side = frozenset(r_side)
        self.flow_to_b = flow_to_b        # SeparatorFlow X_Y -> X_B
        self.flow_to_f = flow_to_f        # SeparatorFlow X_Y -> X_F
        self.mu_tau = mu_tau              # dict split node -> weight
        self.l_parts = tuple(sorted((z & l_side for z in clustering.components
                                     if z & l_side), key=min))
        self.r_parts = tuple(sorted((z & r_side for z in clustering.components
                                     if z & r_side), key=min))

    @property
    def sub_clusters(self):
        return tuple(sorted(self.l_parts + self.r_parts, key=min))

    # the replay's per-partition sets: they depend on neither the demand
    # state nor the cut, so each is made on first read and kept

    @cached_property
    def sorted_x_y(self):
        return sorted(self.x_y)

    @cached_property
    def inner_x_y(self):
        """The separator splits off the cluster boundary, sorted: the
        sources of the separator-to-boundary flow."""
        return sorted(self.x_y - self.view.x_boundary)

    @cached_property
    def y_tilde(self):
        """The separator edges, less the boundary edges touching R."""
        b_r_keys = {edge_key(u, v) for u, v, _ in self.view.boundary_edges
                    if (u in self.r_side) or (v in self.r_side)}
        return self.y_keys - b_r_keys

    @cached_property
    def cap_y_tilde(self):
        """The int capacity of y_tilde."""
        base_cap = self.view.root.base.cap
        return sum(base_cap[k] for k in self.y_tilde)

    @cached_property
    def x_y_tilde(self):
        """The split nodes of y_tilde, sorted."""
        return sorted(self.view.root.split(u, v) for u, v in self.y_tilde)


def merge_phase_2(view: ClusterView, clustering: BalancedClustering, tau) \
        -> MergePartition:
    tau = Fraction(tau)
    if not (0 < tau <= 1):
        raise MergeError("tau must be in (0, 1]")
    gsp = view.sprime
    base_cap = view.root.base.cap
    x_f = clustering.x_f
    x_b = view.x_boundary
    # every split node carries a weight: the min cut may pass through split
    # nodes of inner edges outside F, and those still join the separator
    mu_tau = {}
    for u, v in view.inner_keys:
        mu_tau[view.root.split(u, v)] = Fraction(base_cap[(u, v)])
    for u, v in view.boundary_keys:
        mu_tau[view.root.split(u, v)] = tau * base_cap[(u, v)]
    sources = {x: mu_tau[x] for x in sorted(x_f)}
    sinks = {x: mu_tau[x] for x in sorted(x_b)}
    net = FlowNetwork(gsp, sources, sinks)
    sol, side = max_flow(net)

    x_y = {u if view.root.is_split(u) else v
           for u, v, _ in crossing(gsp, side)}
    for x in x_f:
        if x not in side:
            x_y.add(x)
    for x in x_b:
        if x in side:
            x_y.add(x)
    x_y = frozenset(x_y)
    y_keys = frozenset(view.root.edge_of_split[x] for x in x_y)

    # reachability split: R reaches the boundary in G'[S'] minus X_Y
    reach = gsp.reachable(sorted(x_b - x_y), removed=x_y)
    r_side = frozenset(v for v in view.cluster if v in reach)
    l_side = view.cluster - r_side

    flow_to_b, flow_to_f = _separator_flows(view, sol, side, x_y, mu_tau)
    part = MergePartition(view, clustering, tau, x_y, y_keys, l_side, r_side,
                          flow_to_b, flow_to_f, mu_tau)
    _check_partition(part)
    return part


def _separator_flows(view, sol: FlowSolution, side, x_y, mu_tau):
    """Split each max-flow path at its unique cut crossing; the suffixes give
    the X_Y -> X_B flow and the reversed prefixes the X_Y -> X_F flow, each
    scaled so every x_y sends exactly mu_tau(x_y)."""
    gsp = view.sprime
    paths = path_decomposition(sol)
    crossings = {}    # x_y -> list of (prefix, suffix, amount)
    for verts, amt in paths:
        cross = None
        for i in range(len(verts) - 1):
            if (verts[i] in side) and (verts[i + 1] not in side):
                x = verts[i] if view.root.is_split(verts[i]) else verts[i + 1]
                cross = (i, x)
                break
        if cross is None:
            # crossing at a terminal arc
            if verts[0] not in side:
                cross = (-1, verts[0])     # source arc s -> x_a crosses
            else:
                cross = (len(verts) - 1, verts[-1])  # sink arc crosses
        i, x = cross
        if x not in x_y:
            raise MergeError("path crossing at a node outside the separator")
        if i == -1:
            prefix, suffix = (verts[0],), verts
        elif x == verts[i]:
            prefix, suffix = verts[:i + 1], verts[i:]
        else:
            prefix, suffix = verts[:i + 2], verts[i + 1:]
        crossings.setdefault(x, []).append((prefix, suffix, amt))

    def build(select, reverse):
        per_source = {}
        edge_flow = {}
        sink_in = {}
        for x in sorted(x_y):
            entries = crossings.get(x, [])
            total = sum((a for _, _, a in entries), Fraction(0))
            want = mu_tau[x]
            if total < want:
                raise MergeError("separator node %d carries %s < mu_tau %s"
                                 % (x, total, want))
            scale = want / total if total else Fraction(0)
            rows = []
            for pre, suf, amt in entries:
                path = select(pre, suf)
                if reverse:
                    path = tuple(reversed(path))
                a = amt * scale
                rows.append((path[-1], a))
                sink_in[path[-1]] = sink_in.get(path[-1], Fraction(0)) + a
                for i in range(len(path) - 1):
                    k = (path[i], path[i + 1])
                    edge_flow[k] = edge_flow.get(k, Fraction(0)) + a
            per_source[x] = rows
        congestion = max((a / gsp.edge_capacity(*k)
                          for k, a in edge_flow.items()), default=Fraction(0))
        return SeparatorFlow(per_source, congestion, sink_in,
                             _unit_rows(per_source, mu_tau))

    to_b = build(lambda pre, suf: suf, reverse=False)
    to_f = build(lambda pre, suf: pre, reverse=True)
    return to_b, to_f


def _check_partition(part: MergePartition):
    """Hard contracts: separation, flow constants, and sub-cluster sizes."""
    view = part.view
    gsp = view.sprime
    n_s = len(view.cluster)
    x_b = view.x_boundary
    x_f = part.clustering.x_f
    # separation of X_F and L from X_B
    reach = gsp.reachable(sorted(x_b - part.x_y), removed=part.x_y)
    if reach & (x_f - part.x_y):
        raise MergeError("X_F reaches the boundary despite the separator")
    if reach & part.l_side:
        raise MergeError("L reaches the boundary despite the separator")
    base_cap = view.root.base.cap
    for label, sep, targets in (("to_b", part.flow_to_b, x_b),
                                ("to_f", part.flow_to_f, x_f)):
        if sep.congestion > 2:
            raise MergeError("separator flow %s congestion %s exceeds 2"
                             % (label, sep.congestion))
        for x in part.x_y:
            rows = sep.per_source.get(x, [])
            total = sum((a for _, a in rows), Fraction(0))
            if total != part.mu_tau[x]:
                raise MergeError("separator node %d sends %s != mu_tau %s"
                                 % (x, total, part.mu_tau[x]))
            for t, _ in rows:
                if t not in targets:
                    raise MergeError("separator flow %s ends outside its "
                                     "target set" % label)
        for t, got in sep.sink_in.items():
            cap = 2 * part.mu_tau[t]
            if got > cap:
                raise MergeError("separator flow %s sink %d receives %s > %s"
                                 % (label, t, got, cap))
    for z in part.clustering.components:
        if 3 * len(z) > 2 * n_s and n_s > 1:
            raise MergeError("component size violates the 2/3 bound")
    for p in part.sub_clusters:
        if n_s >= 2 and 3 * len(p) > 2 * n_s:
            raise MergeError("sub-cluster size violates the 2/3 bound")


def merge_phase(view: ClusterView, tau) -> MergePartition:
    if len(view.cluster) < 2:
        raise MergeError("merge_phase needs at least two vertices")
    clustering = merge_phase_1(view)
    return merge_phase_2(view, clustering, tau)
