"""Graphs, cuts, measures, subdivision graphs, and exact expansion checks.

Conventions used throughout the package:
  * vertices are nonnegative integers; edges are stored once as (u, v, cap)
    with u < v and parallel edges aggregated into the capacity;
  * a "cut" is represented by one side as a frozenset;
  * expansion denominators use exact rationals (fractions.Fraction).

Exact cut enumeration (min_ratio_cut here, respects_exact in demand.py)
runs on one Gray-code walk, _gray_min_ratio.  Its API stays Fraction: the
walk scales the masses by the lcm of their denominators so that every
step is integer arithmetic, and builds one Fraction for the returned ratio.
"""

from fractions import Fraction
from math import lcm

from .config import DEFAULT, Config


class GraphError(ValueError):
    pass


class SizeError(GraphError):
    """Raised when an exact enumeration is requested above the threshold."""


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected capacitated multigraph (parallel edges aggregated)."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        agg = {}
        for u, v, c in edges:
            if u == v:
                raise GraphError("self-loop at %r" % (u,))
            c = int(c)
            if c < 1:
                raise GraphError("capacity must be >= 1 on edge (%r, %r)" % (u, v))
            if u not in vset or v not in vset:
                raise GraphError("edge (%r, %r) uses unknown vertex" % (u, v))
            k = edge_key(u, v)
            agg[k] = agg.get(k, 0) + c
        self.edges = tuple((u, v, agg[(u, v)]) for (u, v) in sorted(agg))
        self.cap = {(u, v): c for u, v, c in self.edges}
        self.adj = {v: [] for v in self.vertices}
        for u, v, c in self.edges:
            self.adj[u].append((v, c))
            self.adj[v].append((u, c))
        for v in self.vertices:
            self.adj[v].sort()

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return len(self.edges)

    def degree(self, v):
        return sum(c for _, c in self.adj[v])

    def total_capacity(self):
        return sum(c for _, _, c in self.edges)

    def has_edge(self, u, v):
        return edge_key(u, v) in self.cap

    def edge_capacity(self, u, v):
        return self.cap.get(edge_key(u, v), 0)

    def vertex_set(self):
        return frozenset(self.vertices)

    def induced(self, s):
        s = frozenset(s)
        unknown = s - set(self.vertices)
        if unknown:
            raise GraphError("unknown vertices %r" % (sorted(unknown),))
        return Graph(sorted(s),
                     [(u, v, c) for u, v, c in self.edges if u in s and v in s])

    def components(self):
        """Connected components as a sorted list of frozensets."""
        seen = set()
        out = []
        for root in self.vertices:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            seen.add(root)
            while stack:
                v = stack.pop()
                for u, _ in self.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.add(u)
                        stack.append(u)
            out.append(frozenset(comp))
        return sorted(out, key=min)

    def reachable(self, starts, removed=frozenset()):
        """Vertices reachable from `starts` avoiding the `removed` vertices.

        Vertices in `starts` are included even when also in `removed` only if
        not removed; removed vertices block traversal entirely.
        """
        seen = set()
        stack = [v for v in starts if v not in removed and v in self.adj]
        seen.update(stack)
        while stack:
            v = stack.pop()
            for u, _ in self.adj[v]:
                if u not in seen and u not in removed:
                    seen.add(u)
                    stack.append(u)
        return frozenset(seen)

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.vertex_count, self.edge_count)


class Measure:
    """Nonnegative vertex weighting."""

    def __init__(self, weights):
        self.weights = {}
        for v, w in dict(weights).items():
            w = Fraction(w)
            if w < 0:
                raise GraphError("negative weight at %r" % (v,))
            if w:
                self.weights[v] = w

    @classmethod
    def indicator(cls, vertices):
        return cls({v: 1 for v in vertices})

    @classmethod
    def uniform(cls, vertices, w=1):
        return cls({v: w for v in vertices})

    def __call__(self, v):
        return self.weights.get(v, Fraction(0))

    def of(self, vertices):
        return sum((self.weights[v] for v in vertices if v in self.weights),
                   Fraction(0))

    def total(self):
        return sum(self.weights.values(), Fraction(0))

    def support(self):
        return frozenset(self.weights)

    def restrict(self, vertices):
        vs = set(vertices)
        return Measure({v: w for v, w in self.weights.items() if v in vs})

    def scaled(self, factor):
        return Measure({v: w * Fraction(factor) for v, w in self.weights.items()})


def capacity(g: Graph, a, b) -> int:
    """Total capacity of edges with one endpoint in a and one in b."""
    a, b = frozenset(a), frozenset(b)
    if a & b:
        raise GraphError("capacity() requires disjoint sets")
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    tot = 0
    for v in small:
        for u, c in g.adj.get(v, ()):
            if u in other:
                tot += c
    return tot


def cut_capacity(g: Graph, side) -> int:
    side = frozenset(side)
    tot = 0
    for u, v, c in g.edges:
        if (u in side) != (v in side):
            tot += c
    return tot


def check_cut(g: Graph, side):
    side = frozenset(side)
    if not side or not (g.vertex_set() - side):
        raise GraphError("cut side must be a proper nonempty subset")
    if side - g.vertex_set():
        raise GraphError("cut side contains unknown vertices")
    return side


def cut_expansion(g: Graph, side, mu: Measure):
    """cap(S, S-bar) / min(mu(S), mu(S-bar)); None when the min is zero."""
    side = check_cut(g, side)
    m = min(mu.of(side), mu.of(g.vertex_set() - side))
    if m == 0:
        return None
    return Fraction(cut_capacity(g, side), 1) / m


class SubdivisionGraph:
    """Every base edge gets a split vertex in the middle.

    The split vertex of the aggregated edge (u, v, c) carries capacity c on
    both halves, so deg(x_e) = 2 c(e).
    """

    def __init__(self, base: Graph):
        self.base = base
        nxt = (max(base.vertices) + 1) if base.vertices else 0
        self.split_of_edge = {}
        self.edge_of_split = {}
        verts = list(base.vertices)
        edges = []
        for u, v, c in base.edges:
            x = nxt
            nxt += 1
            self.split_of_edge[(u, v)] = x
            self.edge_of_split[x] = (u, v)
            verts.append(x)
            edges.append((u, x, c))
            edges.append((x, v, c))
        self.graph = Graph(verts, edges)

    def split(self, u, v):
        return self.split_of_edge[edge_key(u, v)]

    def splits_of(self, edge_keys):
        return frozenset(self.split_of_edge[k] for k in edge_keys)

    def is_split(self, v):
        return v in self.edge_of_split

    def lift_cut(self, side):
        """Lift a base cut (B, W) to (B', W'): split nodes of crossing edges
        and of B-internal edges go to B'."""
        side = frozenset(side)
        out = set(side)
        for (u, v), x in self.split_of_edge.items():
            if u in side or v in side:
                out.add(x)
        return frozenset(out)


def subdivide(g: Graph) -> SubdivisionGraph:
    return SubdivisionGraph(g)


class ClusterView:
    """A cluster S of the root graph with its derived views.

    Split-node identities are inherited from the root subdivision so that
    edge sets and measures translate across views without relabeling.
    """

    def __init__(self, sub: SubdivisionGraph, cluster):
        self.root = sub
        base = sub.base
        s = frozenset(cluster)
        if s - base.vertex_set():
            raise GraphError("cluster contains unknown vertices")
        if not s:
            raise GraphError("cluster must be nonempty")
        self.cluster = s
        self.inner_edges = tuple((u, v, c) for u, v, c in base.edges
                                 if u in s and v in s)
        self.boundary_edges = tuple((u, v, c) for u, v, c in base.edges
                                    if (u in s) != (v in s))
        self.inner_keys = tuple((u, v) for u, v, _ in self.inner_edges)
        self.boundary_keys = tuple((u, v) for u, v, _ in self.boundary_edges)
        self.x_inner = frozenset(sub.split(u, v) for u, v in self.inner_keys)
        self.x_boundary = frozenset(sub.split(u, v) for u, v in self.boundary_keys)

        # G[S]
        self.graph_in = Graph(sorted(s), self.inner_edges)
        # G[S]' : subdivision of G[S] with inherited split ids
        sv = list(s) + sorted(self.x_inner)
        se = []
        for u, v, c in self.inner_edges:
            x = sub.split(u, v)
            se.append((u, x, c))
            se.append((x, v, c))
        self.sub_in = Graph(sv, se)
        # G'[S'] : S plus every split node of an incident edge
        pv = list(sv) + sorted(self.x_boundary)
        pe = list(se)
        for u, v, c in self.boundary_edges:
            x = sub.split(u, v)
            inside = u if u in s else v
            pe.append((inside, x, c))
        self.sprime = Graph(pv, pe)
        # G~(S) : G[S] plus boundary split nodes only (interior edges intact)
        tv = list(s) + sorted(self.x_boundary)
        te = list(self.inner_edges)
        for u, v, c in self.boundary_edges:
            x = sub.split(u, v)
            inside = u if u in s else v
            te.append((inside, x, c))
        self.g_tilde = Graph(tv, te)

    def boundary_capacity(self):
        return sum(c for _, _, c in self.boundary_edges)

    def boundary_measure(self, weight=1):
        """Capacity-weighted measure on the boundary split nodes."""
        w = Fraction(weight)
        return Measure({self.root.split(u, v): w * c
                        for u, v, c in self.boundary_edges})

    def split_measure(self, edge_keys, weight=1):
        w = Fraction(weight)
        out = {}
        for k in edge_keys:
            k = edge_key(*k)
            out[self.root.split(*k)] = w * self.root.base.cap[k]
        return Measure(out)


def _gray_min_ratio(g: Graph, weights=None, vectors=None):
    """Exact minimizer of cap(S, S-bar)/den(S) over the cuts of g.

    Exactly one of `weights` and `vectors` is given, as a list aligned with
    g.vertices.  With `weights` (rationals), den(S) = min(w(S), w(S-bar)).
    With `vectors` (dicts commodity -> rational mass),
    den(S) = sum_k |sum_{v in S} m_k(v)|.  Cuts with den(S) = 0 are skipped.

    The first vertex stays in S while the others follow a Gray code over
    2^(n-1) sides, so each step toggles one vertex and updates the cut
    capacity and the masses incrementally.  Masses are scaled by the lcm
    of their denominators, so the walk runs on ints and compares ratios by
    cross-multiplication.  Returns (ratio, side) for the first strict
    minimizer in Gray order, or (None, None) when every den(S) is 0.
    """
    n = g.vertex_count
    if n < 2:
        return None, None
    verts = g.vertices
    if vectors is None:
        scale = lcm(*(w.denominator for w in weights))
        plus = [w.numerator * (scale // w.denominator) for w in weights]
        minus = [-w for w in plus]
        total = sum(plus)
    else:
        scale = lcm(*(a.denominator for vec in vectors for a in vec.values()))
        commodity = {}
        plus = []
        for vec in vectors:
            plus.append(tuple((commodity.setdefault(k, len(commodity)),
                               a.numerator * (scale // a.denominator))
                              for k, a in vec.items()))
        minus = [tuple((k, -a) for k, a in vec) for vec in plus]
        total = None
        sums = [0] * len(commodity)
    idx = {v: i for i, v in enumerate(verts)}
    adjz = [[(idx[u], c) for u, c in g.adj[v]] for v in verts]
    deg = [g.degree(v) for v in verts]
    # the walk starts from the empty side; step 0 adds the first vertex
    in_side = [False] * n
    cap = s = absum = 0
    # best_cap/best_den = 1/0 stands for +infinity: a side with den = 0
    # never beats it, any side with den > 0 does
    best_cap, best_den, best_gray = 1, 0, 0
    full = (1 << (n - 1)) - 1
    for i in range(full + 1):
        # step i > 0 toggles gray bit j - 1, which is vertex j
        j = (i & -i).bit_length()
        inside = 0
        for k, c in adjz[j]:
            if in_side[k]:
                inside += c
        if in_side[j]:
            in_side[j] = False
            cap += inside + inside - deg[j]
            delta = minus[j]
        else:
            in_side[j] = True
            cap += deg[j] - inside - inside
            delta = plus[j]
        if total is None:
            for k, a in delta:
                old = sums[k]
                sums[k] = new = old + a
                absum += abs(new) - abs(old)
            den = absum
        else:
            s += delta
            den = s if s + s <= total else total - s
        if cap * best_den < best_cap * den:
            gray = i ^ (i >> 1)
            # the whole vertex set is no cut (its demand need not vanish
            # when the demand state has mass outside g)
            if gray != full:
                best_cap, best_den, best_gray = cap, den, gray
    if not best_den:
        return None, None
    side = frozenset(v for j, v in enumerate(verts)
                     if j == 0 or (best_gray >> (j - 1)) & 1)
    return Fraction(best_cap * scale, best_den), side


def min_ratio_cut(g: Graph, mu: Measure, threshold=None):
    """Exact minimizer of cap(S, S-bar)/min(mu(S), mu(S-bar)).

    Returns (ratio, side) or (None, None) when no cut has a positive
    denominator; the side is the first strict minimizer in Gray order.
    """
    n = g.vertex_count
    if threshold is None:
        threshold = DEFAULT.brute_threshold
    if n > threshold:
        raise SizeError("exact enumeration needs n <= %d, got %d" % (threshold, n))
    return _gray_min_ratio(g, weights=[mu(v) for v in g.vertices])


def graph_expansion_exact(g: Graph, mu: Measure, threshold=None):
    """Minimum cut expansion over all cuts; None when undefined."""
    ratio, _ = min_ratio_cut(g, mu, threshold)
    return ratio


def set_expands_exact(g: Graph, a, mu: Measure, alpha, threshold=None):
    """Does the set a alpha-expand in g w.r.t. mu?

    Equivalent to g being an alpha-expander for mu restricted to a.  Returns
    (True, None) or (False, witness_side).
    """
    a = frozenset(a)
    ratio, side = min_ratio_cut(g, mu.restrict(a), threshold)
    if ratio is None:
        return True, None
    if ratio >= Fraction(alpha):
        return True, None
    return False, side


def parse_edge_list(text: str) -> Graph:
    """One line per edge: `u v cap` (cap optional, default 1); '#' comments.

    The vertex set is 0..max_id so isolated low-numbered vertices are legal.
    """
    edges = []
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError("line %d: expected `u v [cap]`" % lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
            c = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise GraphError("line %d: %s" % (lineno, exc)) from exc
        if u < 0 or v < 0:
            raise GraphError("line %d: negative vertex id" % lineno)
        max_v = max(max_v, u, v)
        edges.append((u, v, c))
    if max_v < 0:
        raise GraphError("empty edge list")
    return Graph(range(max_v + 1), edges)


def format_edge_list(g: Graph) -> str:
    return "\n".join("%d %d %d" % (u, v, c) for u, v, c in g.edges) + "\n"


def parse_measure(text: str) -> Measure:
    """One line per vertex: `v weight`; weights are rationals."""
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError("line %d: expected `v weight`" % lineno)
        try:
            weights[int(parts[0])] = Fraction(parts[1])
        except ValueError as exc:
            raise GraphError("line %d: %s" % (lineno, exc)) from exc
    return Measure(weights)
