"""Exact max-flow, fair cuts, flow decomposition, and route-from-cut solvers.

All arithmetic is exact (fractions.Fraction).  The networks are tiny, so a
plain Dinic solver is plenty; determinism comes from sorted adjacency and
lexicographic path peeling.
"""

from collections import deque
from fractions import Fraction

from .graph import Graph, GraphError, Measure, edge_key

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

    def net(self, u, v):
        return self.flow.get((u, v), Fraction(0)) - self.flow.get((v, u), Fraction(0))

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

    def scaled(self, factor):
        factor = Fraction(factor)
        return FlowSolution(
            self.graph,
            {k: v * factor for k, v in self.flow.items()},
            {k: v * factor for k, v in self.source_out.items()},
            {k: v * factor for k, v in self.sink_in.items()},
            self.value * factor)

    def to_lines(self):
        out = []
        for v in sorted(self.source_out):
            out.append("s %d %s" % (v, self.source_out[v]))
        for (u, v) in sorted(self.flow):
            out.append("%d %d %s" % (u, v, self.flow[(u, v)]))
        for v in sorted(self.sink_in):
            out.append("%d t %s" % (v, self.sink_in[v]))
        return "\n".join(out)


class TransferMatrix:
    """Sparse (source vertex, sink vertex) -> nonnegative amount."""

    def __init__(self, entries=()):
        self.entries = {}
        for (u, v), a in dict(entries).items():
            a = Fraction(a)
            if a < 0:
                raise FlowError("negative transfer")
            if a:
                self.entries[(u, v)] = self.entries.get((u, v), Fraction(0)) + a

    def add(self, u, v, a):
        a = Fraction(a)
        if a < 0:
            raise FlowError("negative transfer")
        if a:
            self.entries[(u, v)] = self.entries.get((u, v), Fraction(0)) + a

    def row_sum(self, u):
        return sum((a for (s, _), a in self.entries.items() if s == u), Fraction(0))

    def rows(self, u):
        return sorted(((t, a) for (s, t), a in self.entries.items() if s == u))

    def sources(self):
        return sorted({s for s, _ in self.entries})

    def total(self):
        return sum(self.entries.values(), Fraction(0))

    def scaled(self, factor):
        factor = Fraction(factor)
        return TransferMatrix({k: a * factor for k, a in self.entries.items()})


class _Dinic:
    def __init__(self):
        self.head = {}
        self.arcs = []  # [to, cap, flow]; arc i paired with i^1

    def add_node(self, v):
        if v not in self.head:
            self.head[v] = []

    def add_arc(self, u, v, cap):
        self.add_node(u)
        self.add_node(v)
        self.head[u].append(len(self.arcs))
        self.arcs.append([v, Fraction(cap), Fraction(0)])
        self.head[v].append(len(self.arcs))
        self.arcs.append([u, Fraction(0), Fraction(0)])

    def _bfs(self, s, t):
        level = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for i in self.head[v]:
                to, cap, fl = self.arcs[i]
                if cap - fl > 0 and to not in level:
                    level[to] = level[v] + 1
                    q.append(to)
        return level if t in level else None

    def _dfs(self, v, t, pushed, level, it):
        if v == t:
            return pushed
        while it[v] < len(self.head[v]):
            i = self.head[v][it[v]]
            to, cap, fl = self.arcs[i]
            if cap - fl > 0 and level.get(to, -1) == level[v] + 1:
                got = self._dfs(to, t, min(pushed, cap - fl), level, it)
                if got > 0:
                    self.arcs[i][2] += got
                    self.arcs[i ^ 1][2] -= got
                    return got
            it[v] += 1
        return Fraction(0)

    def max_flow(self, s, t):
        self.add_node(s)
        self.add_node(t)
        total = Fraction(0)
        while True:
            level = self._bfs(s, t)
            if level is None:
                break
            it = {v: 0 for v in self.head}
            while True:
                pushed = self._dfs(s, t, Fraction(10) ** 30, level, it)
                if pushed == 0:
                    break
                total += pushed
        return total

    def residual_reachable(self, s):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for i in self.head[v]:
                to, cap, fl = self.arcs[i]
                if cap - fl > 0 and to not in seen:
                    seen.add(to)
                    stack.append(to)
        return seen


def max_flow(net: FlowNetwork):
    """Exact max flow; returns (FlowSolution, min_cut_side).

    min_cut_side is the set of base vertices on the source side of a minimum
    cut (vertices residually reachable from s).
    """
    d = _Dinic()
    for v in net.graph.vertices:
        d.add_node(v)
    arc_of_edge = {}
    for u, v, c in net.graph.edges:
        cap = Fraction(c) * net.edge_scale
        i = len(d.arcs)
        # undirected edge: capacity c in each direction, net bounded by c
        d.add_arc(u, v, cap)
        j = len(d.arcs)
        d.add_arc(v, u, cap)
        arc_of_edge[(u, v)] = (i, j)
    src_arcs = {}
    for v in sorted(net.source_caps):
        src_arcs[v] = len(d.arcs)
        d.add_arc(S_NODE, v, net.source_caps[v])
    sink_arcs = {}
    for v in sorted(net.sink_caps):
        sink_arcs[v] = len(d.arcs)
        d.add_arc(v, T_NODE, net.sink_caps[v])
    value = d.max_flow(S_NODE, T_NODE)
    flow = {}
    for (u, v), (i, j) in arc_of_edge.items():
        f = d.arcs[i][2] - d.arcs[j][2]
        if f > 0:
            flow[(u, v)] = f
        elif f < 0:
            flow[(v, u)] = -f
    source_out = {v: d.arcs[i][2] for v, i in src_arcs.items() if d.arcs[i][2]}
    sink_in = {v: d.arcs[i][2] for v, i in sink_arcs.items() if d.arcs[i][2]}
    side = d.residual_reachable(S_NODE)
    cut_side = frozenset(v for v in net.graph.vertices if v in side)
    return FlowSolution(net.graph, flow, source_out, sink_in, value), cut_side


def fair_cut(net: FlowNetwork, alpha=1):
    """(cut side, flow) where every cut edge is (1/alpha)-saturated S->T.

    Exact max-flow makes the returned minimum cut 1-fair, which satisfies the
    requirement for any alpha >= 1.
    """
    if Fraction(alpha) < 1:
        raise FlowError("fair_cut needs alpha >= 1")
    sol, side = max_flow(net)
    return side, sol


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


def decompose(sol: FlowSolution, net: FlowNetwork) -> TransferMatrix:
    """TransferMatrix from source-attachment entry to sink-attachment exit."""
    if not sol.check_conservation():
        raise FlowError("flow does not conserve")
    tm = TransferMatrix()
    for verts, amt in path_decomposition(sol):
        tm.add(verts[0], verts[-1], amt)
    return tm


class RouteResult:
    def __init__(self, feasible, flow=None, transfer=None, per_edge=None,
                 certificate=None, sources=None):
        self.feasible = feasible
        self.flow = flow
        self.transfer = transfer          # TransferMatrix source vertex -> sink
        self.per_edge = per_edge          # cut edge key -> [(sink, amount)]
        self.certificate = certificate    # infeasibility cut side
        self.sources = sources            # vertex -> injected amount


def route_from_cut(g_s: Graph, d, sink_caps, congestion_cap, cut_edges=None):
    """Route one unit per unit of cut-edge capacity from the cut into G[D].

    g_s: the ambient graph; d: the receiving side.  Every vertex v in d
    sources the total capacity of its cut edges (edges leaving d inside g_s,
    or the given subset).  Sinks absorb up to sink_caps(v); edge congestion
    is capped at congestion_cap.  Returns a RouteResult; on infeasibility the
    certificate is the set of d-vertices whose sink+boundary capacity is
    exhausted (source side of the auxiliary min cut).
    """
    d = frozenset(d)
    if cut_edges is None:
        cut_edges = [(u, v, c) for u, v, c in g_s.edges if (u in d) != (v in d)]
    else:
        norm = []
        for e in cut_edges:
            u, v = e[0], e[1]
            c = g_s.edge_capacity(u, v)
            if c == 0 or ((u in d) == (v in d)):
                raise GraphError("bad cut edge (%r, %r)" % (u, v))
            norm.append((u, v, c))
        cut_edges = norm
    sources = {}
    for u, v, c in cut_edges:
        inside = u if u in d else v
        sources[inside] = sources.get(inside, 0) + c
    gd = g_s.induced(d)
    caps = sink_caps if isinstance(sink_caps, dict) else \
        {v: sink_caps(v) for v in gd.vertices}
    caps = {v: Fraction(c) for v, c in caps.items() if v in d and Fraction(c) > 0}
    net = FlowNetwork(gd, sources, caps, edge_scale=congestion_cap)
    sol, side = max_flow(net)
    total = sum(Fraction(c) for c in sources.values())
    if sol.value != total:
        return RouteResult(False, flow=sol, certificate=frozenset(side),
                           sources=sources)
    transfer = decompose(sol, net)
    # attribute each source vertex's transfers to its individual cut edges,
    # proportionally to edge capacity, in sorted edge order
    per_edge = {}
    rows = {v: [[t, a] for t, a in transfer.rows(v)] for v in sources}
    for u, v, c in sorted((edge_key(u, v) + (c,)) for u, v, c in cut_edges):
        inside = u if u in d else v
        want = Fraction(c)
        alloc = []
        row = rows[inside]
        for cell in row:
            if want == 0:
                break
            take = min(cell[1], want)
            if take > 0:
                alloc.append((cell[0], take))
                cell[1] -= take
                want -= take
        if want != 0:
            raise FlowError("internal attribution mismatch")
        per_edge[(u, v)] = alloc
    return RouteResult(True, flow=sol, transfer=transfer, per_edge=per_edge,
                       sources=sources)
