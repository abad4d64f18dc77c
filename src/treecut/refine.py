"""Recursive boundary-expansion refinement of a cluster.

A cluster S is split until every sub-cluster's boundary split nodes expand
inside it.  The recursion consumes the five-case refined oracle on the
boundary-split graph of each cluster (G[S] plus pendant boundary split
nodes), and the resulting binary cut tree carries one flow per cut that
lets inter-cluster mass be routed bottom-up to the boundary of S with a
per-node load envelope.  `refine` runs that routing once and records its
verdict (`check_routing`) on the result.
"""

from fractions import Fraction
from math import ceil, lcm

from .demand import (DemandMatrix, _flow_matrix, _unit_rows, from_matrix,
                     respects_exact)
from .flow import escalate, path_decomposition, route_from_cut
from .graph import (BRUTE_THRESHOLD, ClusterView, Graph, Measure, capacity,
                    crossing, edge_key)
from .oracle import (CheckReport, check_refined, refined_cut_or_expander,
                     _log2n)
from .util import rlog2, rloglog2


class RefineError(ValueError):
    pass


# Declared routing constant c0; the verifier asserts measured <= declared.
C0_DECLARED = Fraction(1)
# The schedule coefficient c_f = 4*c0/log2(4/3).
SCHEDULE_CF = 4 * C0_DECLARED / rlog2(Fraction(4, 3))
# Boundary all-to-all respect rate for refinement leaves: kappa/(f*log n).
KAPPA = Fraction(1, 384)
# Refinement schedule phi = C_PHI / (log2 n * f(S)).  C_PHI is the largest
# coefficient compatible with both sparsity requirements of the schedule
# (aggregate peel cuts are at most 3*C_PHI/f(S)-sparse and the three-way
# branch needs 1/(16 f(S))).
C_PHI = Fraction(1, 48)


def f_value(cluster_size: int, sigma: int, n: int):
    """Schedule value c_f * log2(sigma/|S|) * max(1, log2 log2 n)."""
    if cluster_size < 1 or sigma < 1:
        raise RefineError("sizes must be positive")
    if 2 * sigma < 3 * cluster_size:
        raise RefineError("schedule needs sigma >= (3/2)|S|; got sigma=%d "
                          "for |S|=%d" % (sigma, cluster_size))
    return SCHEDULE_CF * rlog2(Fraction(sigma, cluster_size)) \
        * rloglog2(max(2, n))


def product_envelope(j: int, n: int) -> Fraction:
    """prod_{l=j}^{3 ceil(log2 n)} (1 + 1/(l * loglog n)), exactly."""
    top = max(1, 3 * ceil(rlog2(max(2, n))))
    ll = rloglog2(max(2, n))
    out = Fraction(1)
    for l in range(max(1, j), top + 1):
        out *= 1 + Fraction(1) / (l * ll)
    return out


class BinaryNode:
    """One node of the refinement cut tree.  The left child is always the
    side that receives the cut-to-boundary flow."""

    def __init__(self, dset, case, left_depth):
        self.dset = frozenset(dset)
        self.case = case          # oracle case, "2c-inner", "3b-leaf", "1"
        self.left = None
        self.right = None
        self.cut_keys = ()        # base edges between left and right sets
        self.route = None         # RouteRecord into the left side
        self.rows = {}            # cut split x -> [(sink, amount)] of route
        self.unit = {}            # cut split x -> capacity x sources
        self.unit_rows = None     # int per-unit rows, made with rows
        self.sink_splits = frozenset()
        self.left_depth = left_depth  # 1 + left edges on the path from root
        self.cluster_leaf = False
        self.contraction = {}     # child set -> which decrease case held

    def walk(self):
        """The nodes of this subtree, children before their parent: the
        left subtree, then the right subtree, then this node."""
        if self.left is not None:
            yield from self.left.walk()
        if self.right is not None:
            yield from self.right.walk()
        yield self


class LeafCertificate:
    """Boundary all-to-all respect check for one refinement leaf."""

    def __init__(self, target, ratio, verified, ok):
        self.target = target
        self.ratio = ratio         # exact respect ratio or None
        self.verified = verified   # "exact" | "unverified"
        self.ok = ok               # True/False when exact, None otherwise


class RefinementResult:
    def __init__(self, view, root, clusters, certificates, outcomes):
        self.view = view
        self.root = root
        self.clusters = tuple(sorted((frozenset(c) for c in clusters),
                                     key=min))
        self.certificates = certificates
        self.outcomes = outcomes
        self.routing = None         # CheckReport of check_routing
        self.boundary_loads = {}    # split node -> load the routing leaves

    @property
    def inter_cluster_keys(self):
        out = set()
        for node in self.root.walk():
            out.update(node.cut_keys)
        return frozenset(out)


def _check_contraction(g: Graph, s, r, node: BinaryNode):
    """Each recursion edge must shrink either the vertex count (to <= 3/4)
    or the boundary measure (by half the non-child boundary, or to 7/8)."""
    s, r = frozenset(s), frozenset(r)
    if 4 * len(r) <= 3 * len(s):
        node.contraction[r] = "size"
        return
    # a part's boundary measure: the capacity of its edges leaving s
    outside = g.vertex_set() - s
    cap_cut = capacity(g, r, s - r)
    mu_rest = capacity(g, s - r, outside)
    if mu_rest > 0 and 2 * cap_cut <= mu_rest:
        node.contraction[r] = "measure"
        return
    mu_r = capacity(g, r, outside) + cap_cut
    mu_s = capacity(g, s, outside)
    if 8 * mu_r <= 7 * mu_s:
        node.contraction[r] = "measure-7/8"
        return
    raise RefineError("recursion into %r shrinks neither size nor boundary "
                      "measure" % (sorted(r),))


def _route_cut_to_left(sub_root, left_set, ctx_set, cut_keys, rate):
    """Flow sending one unit per unit of cut-edge capacity into the outer
    boundary split nodes on the left side, with honest escalation records.

    Graph: G[L] plus pendant split nodes of E(L, V \\ L).  Sources enter at
    the split nodes of the cut edges; sinks are the splits of E(L, V \\ ctx)
    with capacity rate * c(b), boosted if needed.  Returns (record, sinks);
    the record is None when no route exists at any escalation level.
    """
    view_l = sub_root.view(left_set)
    g = view_l.g_tilde
    ctx_set = frozenset(ctx_set)
    left_set = frozenset(left_set)
    cut_splits = frozenset(sub_root.split(u, v) for u, v in cut_keys)
    sinks = set()
    for u, v, _ in view_l.boundary_edges:
        outer = u if u not in left_set else v
        if outer not in ctx_set:
            sinks.add(sub_root.split(u, v))
    sinks = frozenset(sinks)
    if not cut_splits or not sinks:
        return None, sinks
    d = frozenset(g.vertices) - cut_splits
    base_caps = {x: Fraction(rate) * sub_root.split_cap[x]
                 for x in sorted(sinks)}
    rec = escalate(lambda caps, cap: route_from_cut(g, d, caps, cap),
                   base_caps)
    return rec, sinks


def _cut_rows(sub_root, flow, cut_keys, left_set):
    """Attribute a feasible cut-to-left flow to its cut edges.

    Returns (rows, unit), both keyed by the split node x of each cut edge in
    cut_keys order: rows[x] lists the (sink, amount) the flow sends from x
    into the left side, and unit[x] is the capacity of x's base edge, the
    amount x sources.  The flow enters at each cut edge's inner endpoint;
    that endpoint's transfers, sorted by sink, are handed out to its cut
    edges in edge_key(x, inner) order.
    """
    if not flow.check_conservation():
        raise RefineError("cut-to-left flow does not conserve")
    transfers = {}
    for verts, amt in path_decomposition(flow):
        row = transfers.setdefault(verts[0], {})
        row[verts[-1]] = row.get(verts[-1], Fraction(0)) + amt
    cells = {v: sorted([t, a] for t, a in row.items())
             for v, row in transfers.items()}
    inner, unit = {}, {}
    for u, v in cut_keys:
        x = sub_root.split(u, v)
        inner[x] = u if u in left_set else v
        unit[x] = sub_root.split_cap[x]
    rows = {}
    for x in sorted(unit, key=lambda x: edge_key(x, inner[x])):
        want = Fraction(unit[x])
        alloc = []
        for cell in cells.get(inner[x], ()):
            if want == 0:
                break
            take = min(cell[1], want)
            if take > 0:
                alloc.append((cell[0], take))
                cell[1] -= take
                want -= take
        if want != 0:
            raise RefineError("cut-to-left flow leaves cut split %r short "
                              "by %s" % (x, want))
        rows[x] = alloc
    return {x: rows[x] for x in unit}, unit


class _Builder:
    def __init__(self, view: ClusterView, sigma):
        self.sub_root = view.root
        self.g = view.root.base
        self.n = self.g.vertex_count
        self.sigma = sigma
        self.outcomes = []
        self.depth_limit = 40 + 10 * max(1, ceil(rlog2(self.n))) ** 2

    def leaf(self, dset, case, j):
        node = BinaryNode(dset, case, j)
        node.cluster_leaf = True
        return node

    def build(self, dset, depth, j):
        """The cut tree of dset at recursion depth `depth`; j is its left
        depth: a left child gets j + 1, a right child j."""
        if depth > self.depth_limit:
            raise RefineError("refinement recursion exceeded its depth guard")
        dset = frozenset(dset)
        f = f_value(len(dset), self.sigma, self.n)
        view = self.sub_root.view(dset)
        mu = view.boundary_measure()
        if mu.total() == 0 or len(dset) == 1:
            return self.leaf(dset, "1", j)
        gt = view.g_tilde
        logt = _log2n(gt.vertex_count)
        phi = C_PHI / (logt * f)
        nu = Measure.indicator(dset)
        out = refined_cut_or_expander(gt, phi, mu, nu)
        self.outcomes.append((dset, out))
        rep = check_refined(out)
        if not rep.ok:
            raise RefineError("oracle self-check failed on %r: %s"
                              % (sorted(dset), rep.failures))
        node = BinaryNode(dset, out.tag, j)
        if out.tag == "1":
            node.cluster_leaf = True
            return node
        if out.tag == "2c":
            return self._split_2c(node, out, depth, j, phi, logt)
        a = frozenset(out.cut_a) & dset
        rest = dset - a
        if not a or not rest:
            # the relocated cut keeps S whole (one side of the oracle's cut
            # holds split nodes only): S stays one cluster
            node.cluster_leaf = True
            return node
        if out.tag == "3a":
            left_set, right_set = a, rest
        else:
            left_set, right_set = rest, a
        if 4 * len(left_set) > 3 * len(dset):
            raise RefineError("left child exceeds 3/4 of its parent")
        _check_contraction(self.g, dset, left_set, node)
        if out.tag == "3b":
            node.right = self.leaf(right_set, "3b-leaf", j)
        else:
            _check_contraction(self.g, dset, right_set, node)
            node.right = self.build(right_set, depth + 1, j)
        node.left = self.build(left_set, depth + 1, j + 1)
        self._attach_route(node, left_set, dset, right_set, phi, logt)
        return node

    def _split_2c(self, node, out, depth, j, phi, logt):
        dset = node.dset
        a1 = frozenset(out.cut_a1) & dset
        a2 = frozenset(out.cut_a2) & dset
        mid = a1 - a2
        pre = dset - a1
        if not a2 or not mid:
            raise RefineError("degenerate three-way cut in %r" % sorted(dset))
        for child in (a2, mid) + ((pre,) if pre else ()):
            _check_contraction(self.g, dset, child, node)
        if 4 * len(pre) > 3 * len(dset) or 4 * len(a2) > 3 * len(a1):
            raise RefineError("left child exceeds 3/4 of its parent")
        # when the outer cut vanished (a1 = dset) this node carries the
        # inner cut only
        inner = BinaryNode(a1, "2c-inner", j) if pre else node
        inner.left = self.build(a2, depth + 1, j + 1)
        inner.right = self.build(mid, depth + 1, j)
        # the inner cut routes with the outer cluster's schedule and targets
        # the outer cluster's boundary (its own cut splits are not sinks)
        self._attach_route(inner, a2, dset, mid, phi, logt)
        if pre:
            node.left = self.build(pre, depth + 1, j + 1)
            node.right = inner
            self._attach_route(node, pre, dset, a1, phi, logt)
        return node

    def _attach_route(self, node, left_set, ctx_set, right_set, phi, logt):
        cut_keys = tuple((u, v) for u, v, _ in crossing(
            self.g.induced(left_set | right_set), left_set))
        node.cut_keys = cut_keys
        rate = C0_DECLARED * phi * logt
        route, sinks = _route_cut_to_left(self.sub_root, left_set, ctx_set,
                                          cut_keys, rate)
        node.sink_splits = sinks
        # with no outer-boundary sink on the left side the mass stays on the
        # cut: the route stays None and check_routing fails
        if route is None and cut_keys and sinks:
            raise RefineError("cut-to-boundary flow infeasible at every "
                              "escalation level in %r" % sorted(left_set))
        node.route = route
        if route is not None:
            node.rows, node.unit = _cut_rows(self.sub_root, route.flow,
                                             cut_keys, left_set)
            node.unit_rows = _unit_rows(node.rows, node.unit)


def refine(view: ClusterView, sigma: int) -> RefinementResult:
    s = view.cluster
    if 2 * sigma < 3 * len(s):
        raise RefineError("refine needs sigma >= (3/2)|S|")
    b = _Builder(view, sigma)
    root = b.build(s, 0, 1)
    clusters = [n.dset for n in root.walk() if n.cluster_leaf]
    certs = [_leaf_certificate(view.root, c, sigma)
             for c in sorted(clusters, key=min)]
    res = RefinementResult(view, root, clusters, certs, b.outcomes)
    res.routing = check_routing(res)
    return res


def _leaf_certificate(sub_root, cluster, sigma):
    n = sub_root.base.vertex_count
    f = f_value(len(cluster), sigma, n)
    view = sub_root.view(cluster)
    target = KAPPA / (f * _log2n(n))
    if not view.x_boundary:
        return LeafCertificate(target, None, "exact", True)
    if view.sprime.vertex_count > BRUTE_THRESHOLD:
        return LeafCertificate(target, None, "unverified", None)
    weight = {x: sub_root.split_cap[x] for x in view.x_boundary}
    # each boundary split sources its full capacity, spread over the others
    # in proportion to their capacities
    p = from_matrix(DemandMatrix.spread(weight, weight, weight.get))
    ratio, _ = respects_exact(view.sprime, p)
    if ratio is None:
        return LeafCertificate(target, None, "exact", True)
    return LeafCertificate(target, ratio, "exact", ratio >= target)


def check_routing(res: RefinementResult) -> CheckReport:
    """Move one unit of mass per unit of inter-cluster edge capacity to the
    boundary of the refined cluster, one cut-tree node at a time from the
    leaves up, scaling each node's stored unit rows by the load present on
    its cut splits, and check the routing on the way, on int load
    numerators over one denominator.

    Fails on an unrouted cut, on a node whose sink splits carry more per
    unit of capacity than product_envelope(left depth, n), on mass that is
    lost or that ends off the cluster's boundary splits, and on an edge
    used above congestion 2.  Leaves the final nonzero loads in
    res.boundary_loads.
    """
    rep = CheckReport()
    sub = res.view.root
    n = sub.base.vertex_count
    loads = {sub.split(u, v): sub.base.cap[(u, v)]
             for u, v in res.inter_cluster_keys}
    den = 1
    total = sum(loads.values())
    usage = {}
    for node in res.root.walk():
        if not node.cut_keys:
            continue
        if node.route is None:
            # an unrouted cut's mass stays in place
            rep.fail("cut of %r is not routed" % sorted(node.dset))
            continue
        unit = node.unit
        max_scale = max(Fraction(loads.get(x, 0), c * den)
                        for x, c in unit.items())
        # each loaded cut split gives up its whole load, and each sink
        # receives the load times its per-unit share
        q = _flow_matrix(loads, den, unit, node)
        d = lcm(den, q.den)
        loads = {x: 0 if x in unit else a * (d // den)
                 for x, a in loads.items()}
        for (_, sink), a in q.nums.items():
            loads[sink] = loads.get(sink, 0) + a * (d // q.den)
        den = d
        flow = node.route.flow
        for (a, b), fval in flow.flow.items():
            cap = flow.graph.edge_capacity(a, b)
            k = edge_key(a, b)
            usage[k] = usage.get(k, Fraction(0)) + abs(fval) / cap * max_scale
        env = product_envelope(node.left_depth, n)
        # the largest sink load per unit of capacity, as wn / wd
        wn, wd = 0, 1
        for x in node.sink_splits:
            load, c = loads.get(x, 0), sub.split_cap[x]
            if load * wd > wn * c:
                wn, wd = load, c
        if wn * env.denominator > env.numerator * wd * den:
            rep.fail("node %r at left depth %d: sink load %s per unit above "
                     "the envelope %s" % (sorted(node.dset), node.left_depth,
                                          Fraction(wn, wd * den), env))
    moved = sum(loads.values())
    if moved != total * den:
        rep.fail("routing moved %s of %s units" % (Fraction(moved, den),
                                                   total))
    loads = {x: Fraction(a, den) for x, a in loads.items() if a}
    stray = sorted(set(loads) - res.view.x_boundary)
    if stray:
        rep.fail("routing left mass off the boundary at %r" % stray)
    congestion = max(usage.values(), default=Fraction(0))
    if congestion > 2:
        rep.fail("edge congestion %s above 2" % congestion)
    res.boundary_loads = loads
    return rep
