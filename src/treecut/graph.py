"""Graphs, cuts, measures, subdivision graphs, and exact expansion checks.

Conventions used throughout the package:
  * vertices are nonnegative integers; edges are stored once as (u, v, cap)
    with u < v and parallel edges aggregated into the capacity;
  * a "cut" is represented by one side as a frozenset;
  * a measure holds nonnegative int weights, so its masses are ints;
    expansions are exact rationals (fractions.Fraction).

Exact cut enumeration (min_ratio_cut here, respects_exact in demand.py)
runs on one kernel, _min_ratio_side, which scores all 2^(n-1) sides in
numpy blocks of subset sums.  Every side is scored in ints (Python ints
past 2^62): a measure's weights are ints already, and respects_exact
passes a demand state's int numerators with its one denominator as the
scale.  It builds one Fraction for the returned ratio.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .util import data_lines, int_dtype, parse_frac


class GraphError(ValueError):
    pass


class SizeError(GraphError):
    """Raised when an exact enumeration is requested above the threshold."""


# Exact cut enumeration (min_ratio_cut, respects_exact) is used up to this
# many vertices; above it the sparsest-cut backend falls back to spectral
# sweeps and certificates are reported as sampled rather than exact.  It
# stays at most verify.EXHAUSTIVE_LIMIT, which bounds the enumeration's
# tables.
BRUTE_THRESHOLD = 18


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected capacitated multigraph (parallel edges aggregated)."""

    def __init__(self, vertices, edges):
        vertices = list(vertices)
        for v in vertices:
            # negative ids would meet the flow network's source and sink
            if type(v) is not int or v < 0:
                raise GraphError("vertex %r is not a nonnegative integer"
                                 % (v,))
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        agg = {}
        for u, v, c in edges:
            if u == v:
                raise GraphError("self-loop at %r" % (u,))
            if c != int(c):
                raise GraphError("capacity %s on edge (%r, %r) is not an "
                                 "integer" % (c, u, v))
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

    def edge_capacity(self, u, v):
        return self.cap.get(edge_key(u, v), 0)

    def vertex_set(self):
        return frozenset(self.vertices)

    def induced(self, s):
        """G[s].  Its edges were checked, merged and sorted here, and each
        adjacency list is a sorted sublist of this graph's, so they are
        copied, not checked again."""
        s = frozenset(s)
        unknown = s - self.adj.keys()
        if unknown:
            raise GraphError("unknown vertices %r" % (sorted(unknown),))
        sub = Graph.__new__(Graph)
        sub.vertices = tuple(v for v in self.vertices if v in s)
        sub.edges = tuple(e for e in self.edges if e[0] in s and e[1] in s)
        sub.cap = {(u, v): c for u, v, c in sub.edges}
        sub.adj = {v: [a for a in self.adj[v] if a[0] in s]
                   for v in sub.vertices}
        return sub

    def components(self):
        """Connected components as a sorted list of frozensets."""
        return components_without(self, ())

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


def components_without(g: Graph, removed):
    """Connected components of g minus the edges keyed (u, v), u < v, in
    the set `removed`, as a list of frozensets sorted by least vertex."""
    seen = set()
    out = []
    for root in g.vertices:
        if root in seen:
            continue
        # roots come in increasing order, so each is its component's least
        comp = [root]
        seen.add(root)
        for v in comp:
            for u, _ in g.adj[v]:
                if u not in seen and \
                        ((v, u) if v < u else (u, v)) not in removed:
                    seen.add(u)
                    comp.append(u)
        out.append(frozenset(comp))
    return out


_ZERO = Fraction(0)     # one shared immutable zero for lookup defaults


class Measure:
    """Nonnegative int vertex weighting."""

    def __init__(self, weights):
        self.weights = {}
        for v, w in dict(weights).items():
            if type(w) is not int or w < 0:
                raise GraphError("weight %r at %r: not an int >= 0" % (w, v))
            if w:
                self.weights[v] = w

    @classmethod
    def indicator(cls, vertices):
        return cls({v: 1 for v in vertices})

    def __call__(self, v):
        return self.weights.get(v, 0)

    def of(self, vertices):
        weights = self.weights
        return sum(weights[v] for v in vertices if v in weights)

    def total(self):
        return sum(self.weights.values())

    def restrict(self, vertices):
        """mu on `vertices` alone.  Its weights were checked here, so they
        are copied, not checked again."""
        vs = set(vertices)
        out = Measure.__new__(Measure)
        out.weights = {v: w for v, w in self.weights.items() if v in vs}
        return out


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


def crossing(g: Graph, side):
    """g's edges (u, v, c) with one end in the set side, in g.edges order."""
    return [e for e in g.edges if (e[0] in side) != (e[1] in side)]


def cut_capacity(g: Graph, side) -> int:
    return sum(c for _, _, c in crossing(g, frozenset(side)))


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
    return Fraction(cut_capacity(g, side), m)


class SubdivisionGraph:
    """Every base edge gets a split vertex in the middle.

    This holds the split ids and their capacities only: edge i of
    base.edges gets id max(vertices) + 1 + i, and split_cap[x] is the
    capacity c(e) of x's edge e.  The subdivided graphs are built per
    cluster (ClusterView), where the split vertex of the aggregated edge
    (u, v, c) carries capacity c on both halves, so deg(x_e) = 2 c(e).
    """

    def __init__(self, base: Graph):
        self.base = base
        nxt = (max(base.vertices) + 1) if base.vertices else 0
        self.split_of_edge = {}
        self.edge_of_split = {}
        self.split_cap = {}
        self._views = {}
        for x, (u, v, c) in enumerate(base.edges, nxt):
            self.split_of_edge[(u, v)] = x
            self.edge_of_split[x] = (u, v)
            self.split_cap[x] = c

    def split(self, u, v):
        return self.split_of_edge[edge_key(u, v)]

    def is_split(self, v):
        return v in self.edge_of_split

    def view(self, cluster):
        """The ClusterView of cluster, built on the first call and returned
        by every later one; views are never changed after construction."""
        cluster = frozenset(cluster)
        view = self._views.get(cluster)
        if view is None:
            view = self._views[cluster] = ClusterView(self, cluster)
        return view

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
        self.boundary_edges = tuple(crossing(base, s))
        self.inner_keys = tuple((u, v) for u, v, _ in self.inner_edges)
        self.boundary_keys = tuple((u, v) for u, v, _ in self.boundary_edges)
        self.x_inner = frozenset(sub.split(u, v) for u, v in self.inner_keys)
        self.x_boundary = frozenset(sub.split(u, v) for u, v in self.boundary_keys)

    # The derived graphs are built on first use: a view is kept for the
    # life of its subdivision graph (SubdivisionGraph.view), and most
    # callers read one or two of them.

    @cached_property
    def graph_in(self):
        """G[S]."""
        return Graph(sorted(self.cluster), self.inner_edges)

    def _inner_subdivision(self):
        """Vertex and edge lists of G[S]' with inherited split ids."""
        sv = list(self.cluster) + sorted(self.x_inner)
        se = []
        for u, v, c in self.inner_edges:
            x = self.root.split(u, v)
            se.append((u, x, c))
            se.append((x, v, c))
        return sv, se

    def _pendants(self):
        """Each boundary edge as (endpoint in S, its split node, capacity)."""
        out = []
        for u, v, c in self.boundary_edges:
            inside = u if u in self.cluster else v
            out.append((inside, self.root.split(u, v), c))
        return out

    @cached_property
    def sub_in(self):
        """G[S]': the subdivision of G[S]."""
        return Graph(*self._inner_subdivision())

    @cached_property
    def sprime(self):
        """G'[S']: S plus every split node of an incident edge."""
        sv, se = self._inner_subdivision()
        return Graph(sv + sorted(self.x_boundary), se + self._pendants())

    @cached_property
    def g_tilde(self):
        """G~(S): G[S] plus boundary split nodes only (interior edges
        intact)."""
        return Graph(list(self.cluster) + sorted(self.x_boundary),
                     list(self.inner_edges) + self._pendants())

    def boundary_capacity(self):
        return sum(c for _, _, c in self.boundary_edges)

    def boundary_measure(self):
        """Capacity-weighted measure on the boundary split nodes."""
        return Measure({self.root.split(u, v): c
                        for u, v, c in self.boundary_edges})

    def split_measure(self, edge_keys):
        out = {}
        for k in edge_keys:
            k = edge_key(*k)
            out[self.root.split(*k)] = self.root.base.cap[k]
        return Measure(out)


# The _LOW_BITS vertices after the first are the low ones and the rest the
# high ones: each subset of the high vertices starts one block of sides,
# which adds every subset of the low ones.
_LOW_BITS = 12
# Sides whose float ratio is within this factor of a block's least are
# compared exactly.
_FLOAT_SLACK = 1 + 1e-9


def _gray_rank(mask):
    """Position of mask in the Gray code: the xor of all its right shifts."""
    shift = 1
    while mask >> shift:
        mask ^= mask >> shift
        shift += shift
    return mask


def _side_sums(rows, first, verts):
    """`first` plus the rows of S, for every subset S of the vertex indices
    verts, in Gray-code order: table row p adds rows[verts[i]] for the set
    bits i of p ^ (p >> 1).  Column 0 holds cut capacities and column
    1 + j holds -2 c(., j), so the reflected doubling (rows 2^i..2^(i+1)-1
    are the first 2^i reversed, plus vertex j = verts[i]) updates
    cap(S + j) = cap(S) + deg(j) - 2 c(S, j) in place."""
    t = np.empty((1 << len(verts), len(first)), first.dtype)
    t[0] = first
    for i, j in enumerate(verts):
        h = 1 << i
        np.add(t[h - 1::-1], rows[j], out=t[h:h + h])
        t[h:h + h, 0] += t[h - 1::-1, 1 + j]
    return t


def _min_ratio_side(g: Graph, weights=None, vectors=None, scale=1):
    """Exact minimizer of cap(S, S-bar)/den(S) over the cuts of g.

    Exactly one of `weights` and `vectors` is given, as a list aligned with
    g.vertices.  With `weights` (ints), den(S) = min(w(S), w(S-bar)).
    With `vectors` (dicts commodity -> int mass numerator over `scale`),
    den(S) = sum_k |sum_{v in S} m_k(v)| / scale.  Cuts with den(S) = 0
    are skipped, and so is the whole vertex set (its demand need not
    vanish when the demand state has mass outside g).

    The first vertex stays in S, and bit j - 1 of a side's mask stands for
    vertex j.  The sides are tabled in ints by _side_sums: first the first
    vertex plus every subset of the high vertices, then, one block at a
    time, each of those plus every subset of the low vertices.  Each block
    is scored in numpy; floats pick the sides within _FLOAT_SLACK of its
    least ratio, and ints compare those in Gray order (a block of odd index
    runs through its table backwards).  Returns (ratio, side) for the first
    strict minimizer in Gray order, or (None, None) when every den(S) is 0.
    """
    n = g.vertex_count
    if vectors is None:
        total = sum(weights)
        masses = [[w] for w in weights]
        # min(w(S), w(S-bar)) > 0 needs weight on both sides
        if sum(1 for w in weights if w) < 2:
            return None, None
    else:
        commodity = {}
        for vec in vectors:
            for k in vec:
                commodity.setdefault(k, len(commodity))
        if n < 2 or not commodity:
            return None, None
        masses = []
        for vec in vectors:
            row = [0] * len(commodity)
            for k, a in vec.items():
                row[commodity[k]] = a
            masses.append(row)
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    # row j: deg(j), -2 c(j, v) for every vertex v, then j's masses
    rows = [[g.degree(v)] + [0] * n + m for v, m in zip(verts, masses)]
    for u, v, c in g.edges:
        rows[idx[u]][1 + idx[v]] = rows[idx[v]][1 + idx[u]] = -2 * c
    # every value formed below lies within the sum of the rows' |entries|
    rows = np.array(rows, int_dtype(sum(sum(map(abs, row)) for row in rows)))
    cut = min(n, _LOW_BITS + 1)
    high = _side_sums(rows, rows[0], range(cut, n))
    # the block and the position of the whole vertex set
    full = (_gray_rank((1 << (n - cut)) - 1),
            _gray_rank((1 << (cut - 1)) - 1))
    # the least float ratio so far; best_cap/best_den = 1/0 stands for
    # +infinity (any side with den > 0 beats it), at block k, position p
    least_seen, best_cap, best_den, best_at = np.inf, 1, 0, None
    for k, first in enumerate(high):
        t = _side_sums(rows, first, range(1, cut))
        cap = t[:, 0]
        if vectors is None:
            den = np.minimum(t[:, n + 1], total - t[:, n + 1])
        else:
            den = np.abs(t[:, n + 1:]).sum(axis=1)
        if k == full[0]:
            den[full[1]] = 0     # the whole vertex set is no cut
        ratio = np.where(den > 0, cap / np.maximum(den, 1), np.inf)
        least = ratio.min()
        if least == np.inf or least > least_seen * _FLOAT_SLACK:
            continue
        least_seen = min(least_seen, least)
        near = np.flatnonzero(ratio <= least * _FLOAT_SLACK).tolist()
        for p in reversed(near) if k & 1 else near:
            c, d = cap.item(p), den.item(p)
            if c * best_den < best_cap * d:
                best_cap, best_den, best_at = c, d, (k, p)
    if best_at is None:
        return None, None
    k, p = best_at
    mask = (k ^ (k >> 1)) << (cut - 1) | p ^ (p >> 1)
    side = frozenset(v for j, v in enumerate(verts)
                     if j == 0 or (mask >> (j - 1)) & 1)
    return Fraction(best_cap * scale, best_den), side


def min_ratio_cut(g: Graph, mu: Measure, threshold=BRUTE_THRESHOLD):
    """Exact minimizer of cap(S, S-bar)/min(mu(S), mu(S-bar)).

    Returns (ratio, side) or (None, None) when no cut has a positive
    denominator; the side is the first strict minimizer in Gray order.
    """
    n = g.vertex_count
    if n > threshold:
        raise SizeError("exact enumeration needs n <= %d, got %d" % (threshold, n))
    return _min_ratio_side(g, weights=[mu(v) for v in g.vertices])


def parse_edge_list(text: str) -> Graph:
    """One line per edge: `u v cap` (cap optional, default 1); '#' comments.

    The vertex set is 0..max_id so isolated low-numbered vertices are legal.
    """
    edges = []
    max_v = -1
    for lineno, line in data_lines(text.splitlines()):
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


def parse_measure(text: str):
    """One line per vertex: `v weight`; weights are nonnegative rationals,
    and no vertex has two lines.  Returns (mu, scale): mu holds the
    weights times scale, the lcm of their denominators, as ints."""
    weights = {}
    for lineno, line in data_lines(text.splitlines()):
        parts = line.split()
        if len(parts) != 2:
            raise GraphError("line %d: expected `v weight`" % lineno)
        try:
            v, w = int(parts[0]), parse_frac(parts[1])
        except ValueError as exc:
            raise GraphError("line %d: %s" % (lineno, exc)) from exc
        if v in weights:
            raise GraphError("line %d: vertex %d has a weight already"
                             % (lineno, v))
        if w < 0:
            raise GraphError("line %d: negative weight" % lineno)
        weights[v] = w
    scale = lcm(*(w.denominator for w in weights.values()))
    return Measure({v: int(w * scale) for v, w in weights.items()}), scale
