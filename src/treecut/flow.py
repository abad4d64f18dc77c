"""Exact max-flow, path decomposition, and route-from-cut solvers, and the
one congestion-escalation loop over routing flows.

All arithmetic is exact.  The API is fractions.Fraction throughout;
max_flow scales every capacity by the lcm of the denominators and runs a
plain Dinic solver on Python ints, and decomposition and routing work on
the Fraction flows it returns.  Determinism comes from sorted adjacency and
lexicographic path peeling.
"""

from collections import deque
from fractions import Fraction
from math import lcm

from .graph import Graph, crossing

S_NODE = -1
T_NODE = -2


class FlowError(ValueError):
    pass


class FlowNetwork:
    """Base graph plus source/sink attachments (vertex -> capacity).

    edge_scale multiplies every base edge capacity, which is how congestion
    caps are imposed on routing problems.
    """

    def __init__(self, graph: Graph, source_caps, sink_caps, edge_scale=1):
        self.graph = graph
        self.edge_scale = Fraction(edge_scale)
        self.source_caps = {v: Fraction(c) for v, c in dict(source_caps).items()
                            if Fraction(c) > 0}
        self.sink_caps = {v: Fraction(c) for v, c in dict(sink_caps).items()
                          if Fraction(c) > 0}
        for v in list(self.source_caps) + list(self.sink_caps):
            if v not in graph.adj:
                raise FlowError("attachment at unknown vertex %r" % (v,))


class FlowSolution:
    """A feasible flow: positive directed flow per base edge + terminal arcs."""

    def __init__(self, graph: Graph, flow, source_out, sink_in, value):
        self.graph = graph
        self.flow = {k: v for k, v in flow.items() if v}
        self.source_out = {k: v for k, v in source_out.items() if v}
        self.sink_in = {k: v for k, v in sink_in.items() if v}
        self.value = value

    def congestion(self):
        """max over base edges of |flow| / capacity (original capacities)."""
        worst = Fraction(0)
        for (u, v), f in self.flow.items():
            c = self.graph.edge_capacity(u, v)
            worst = max(worst, abs(f) / c)
        return worst

    def check_conservation(self):
        bal = {}
        for (u, v), f in self.flow.items():
            bal[u] = bal.get(u, Fraction(0)) - f
            bal[v] = bal.get(v, Fraction(0)) + f
        for v, f in self.source_out.items():
            bal[v] = bal.get(v, Fraction(0)) + f
        for v, f in self.sink_in.items():
            bal[v] = bal.get(v, Fraction(0)) - f
        return all(x == 0 for x in bal.values())


class _Dinic:
    """Dinic's algorithm on int capacities.  Arc i is paired with its
    reverse arc i ^ 1; res holds residual capacities, so the flow on a
    forward arc i is res[i ^ 1]."""

    def __init__(self):
        self.head = {}
        self.to = []
        self.res = []

    def add_node(self, v):
        if v not in self.head:
            self.head[v] = []

    def add_arc(self, u, v, cap):
        self.add_node(u)
        self.add_node(v)
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.res.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.res.append(0)

    def _bfs(self, s, t):
        level = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for i in self.head[v]:
                to = self.to[i]
                if self.res[i] > 0 and to not in level:
                    level[to] = level[v] + 1
                    q.append(to)
        return level if t in level else None

    def _augment(self, s, t, level, it):
        """Push along one s-t path of the level graph; returns the amount
        (0 once the level graph is blocked).

        This is the usual recursive blocking-flow DFS with an explicit
        path: arcs out of v are scanned from it[v], and it[v] moves past an
        arc only when the search beyond it fails.  The first arc's residual
        bounds the push, so no infinite sentinel is needed.
        """
        head, to, res = self.head, self.to, self.res
        path = []
        v = s
        while v != t:
            arcs = head[v]
            k = it[v]
            want = level[v] + 1
            while k < len(arcs):
                i = arcs[k]
                if res[i] > 0 and level.get(to[i], -1) == want:
                    break
                k += 1
            it[v] = k
            if k < len(arcs):
                path.append(i)
                v = to[i]
            elif path:
                # dead end: back up and skip the arc that led here
                v = to[path.pop() ^ 1]
                it[v] += 1
            else:
                return 0
        pushed = min(res[i] for i in path)
        for i in path:
            res[i] -= pushed
            res[i ^ 1] += pushed
        return pushed

    def max_flow(self, s, t):
        self.add_node(s)
        self.add_node(t)
        total = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                break
            it = dict.fromkeys(self.head, 0)
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                total += pushed
        return total

    def residual_reachable(self, s):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for i in self.head[v]:
                to = self.to[i]
                if self.res[i] > 0 and to not in seen:
                    seen.add(to)
                    stack.append(to)
        return seen


def max_flow(net: FlowNetwork):
    """Exact max flow; returns (FlowSolution, min_cut_side).

    min_cut_side is the set of base vertices on the source side of a minimum
    cut (vertices residually reachable from s).  Capacities are scaled by
    the lcm of their denominators, Dinic runs on ints, and every amount is
    divided back into a Fraction for the FlowSolution.
    """
    es = net.edge_scale
    terminal = list(net.source_caps.values()) + list(net.sink_caps.values())
    scale = lcm(es.denominator, *(c.denominator for c in terminal))

    def scaled(c):
        return c.numerator * (scale // c.denominator)

    unit = scaled(es)
    d = _Dinic()
    for v in net.graph.vertices:
        d.add_node(v)
    arc_of_edge = {}
    for u, v, c in net.graph.edges:
        i = len(d.to)
        # undirected edge: capacity c in each direction, net bounded by c
        d.add_arc(u, v, c * unit)
        j = len(d.to)
        d.add_arc(v, u, c * unit)
        arc_of_edge[(u, v)] = (i, j)
    src_arcs = {}
    for v in sorted(net.source_caps):
        src_arcs[v] = len(d.to)
        d.add_arc(S_NODE, v, scaled(net.source_caps[v]))
    sink_arcs = {}
    for v in sorted(net.sink_caps):
        sink_arcs[v] = len(d.to)
        d.add_arc(v, T_NODE, scaled(net.sink_caps[v]))
    value = d.max_flow(S_NODE, T_NODE)
    res = d.res
    flow = {}
    for (u, v), (i, j) in arc_of_edge.items():
        f = res[i ^ 1] - res[j ^ 1]
        if f > 0:
            flow[(u, v)] = Fraction(f, scale)
        elif f < 0:
            flow[(v, u)] = Fraction(-f, scale)
    source_out = {v: Fraction(res[i ^ 1], scale)
                  for v, i in src_arcs.items() if res[i ^ 1]}
    sink_in = {v: Fraction(res[i ^ 1], scale)
               for v, i in sink_arcs.items() if res[i ^ 1]}
    side = d.residual_reachable(S_NODE)
    cut_side = frozenset(v for v in net.graph.vertices if v in side)
    return (FlowSolution(net.graph, flow, source_out, sink_in,
                         Fraction(value, scale)), cut_side)


def path_decomposition(sol: FlowSolution):
    """Decompose into s->t paths, discarding leftover cycles.

    Deterministic: repeatedly peel the lexicographically smallest shortest
    path in the positive-flow digraph.  Returns a list of (vertices, amount)
    where vertices excludes the terminals.
    """
    out_arcs = {}

    def add(u, v, f):
        if f > 0:
            out_arcs.setdefault(u, {})[v] = out_arcs.get(u, {}).get(v, Fraction(0)) + f

    for v, f in sol.source_out.items():
        add(S_NODE, v, f)
    for (u, v), f in sol.flow.items():
        add(u, v, f)
    for v, f in sol.sink_in.items():
        add(v, T_NODE, f)

    paths = []
    remaining = sol.value
    while remaining > 0:
        # BFS from s choosing the smallest parent, for a canonical path
        parent = {S_NODE: None}
        q = deque([S_NODE])
        while q and T_NODE not in parent:
            v = q.popleft()
            for u in sorted(out_arcs.get(v, {})):
                if out_arcs[v][u] > 0 and u not in parent:
                    parent[u] = v
                    q.append(u)
        if T_NODE not in parent:
            break  # only cycles remain
        path = []
        v = T_NODE
        while v is not None:
            path.append(v)
            v = parent[v]
        path.reverse()
        amt = min(out_arcs[path[i]][path[i + 1]] for i in range(len(path) - 1))
        for i in range(len(path) - 1):
            out_arcs[path[i]][path[i + 1]] -= amt
        paths.append((tuple(path[1:-1]), amt))
        remaining -= amt
    if remaining != 0:
        raise FlowError("decomposition failed to exhaust the flow value")
    return paths


class RouteResult:
    def __init__(self, feasible, flow):
        self.feasible = feasible
        self.flow = flow                  # the max flow found


def route_from_cut(g_s: Graph, d, sink_caps, congestion_cap):
    """Route one unit per unit of cut-edge capacity from the cut into G[D].

    g_s: the ambient graph; d: the receiving side.  Every vertex v in d
    sources the total capacity of its edges leaving d inside g_s.  Sinks
    absorb up to sink_caps[v] (a dict); edge congestion is capped at
    congestion_cap.  The route is feasible when the max flow saturates
    every source.
    """
    d = frozenset(d)
    sources = {}
    for u, v, c in crossing(g_s, d):
        inside = u if u in d else v
        sources[inside] = sources.get(inside, 0) + c
    gd = g_s.induced(d)
    caps = {v: Fraction(c) for v, c in sink_caps.items()
            if v in d and Fraction(c) > 0}
    sol, _ = max_flow(FlowNetwork(gd, sources, caps,
                                  edge_scale=congestion_cap))
    total = sum(Fraction(c) for c in sources.values())
    return RouteResult(sol.value == total, sol)


# escalate first routes every recorded routing flow (merge attachments and
# refinement cuts) at FIRST_CONGESTION_CAP, doubles the cap up to
# ORACLE_CONGESTION_LIMIT, and only then boosts the sink caps.
FIRST_CONGESTION_CAP = Fraction(4)
ORACLE_CONGESTION_LIMIT = Fraction(64)


class RouteRecord:
    """A Remark-style routing flow with the constants actually used."""

    def __init__(self, flow, congestion_cap, sink_caps, sink_boost,
                 within_declared):
        self.flow = flow                  # the FlowSolution that routes
        self.congestion_cap = Fraction(congestion_cap)
        self.sink_caps = dict(sink_caps)
        self.sink_boost = Fraction(sink_boost)
        self.within_declared = bool(within_declared)


def escalate(solve, sink_caps, boost_limit=64):
    """The one congestion-escalation loop: solve(caps, cap) routes once with
    sink caps `caps` at congestion cap `cap` and returns a RouteResult.

    The cap doubles from FIRST_CONGESTION_CAP up to
    ORACLE_CONGESTION_LIMIT, then the sink caps are multiplied by a boost
    doubling up to boost_limit.
    Returns the RouteRecord of the first feasible level (within_declared
    only at the first), or None when no level routes.
    """
    cap, boost, within = FIRST_CONGESTION_CAP, Fraction(1), True
    while True:
        caps = {v: c * boost for v, c in sink_caps.items()}
        res = solve(caps, cap)
        if res.feasible:
            return RouteRecord(res.flow, cap, caps, boost, within)
        if cap < ORACLE_CONGESTION_LIMIT:
            cap = cap * 2
        elif boost < boost_limit:
            boost = boost * 2
        else:
            return None
        within = False
