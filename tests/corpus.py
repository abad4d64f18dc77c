"""Shared test graphs, measures and demand states, the Fraction
references of the demand kernels, and the brute-force minimum-ratio cut,
tree min-cut and terminal-augmented min cut."""

import itertools
from fractions import Fraction
from math import lcm

from treecut.demand import DemandError, DemandMatrix, DemandState
from treecut.graph import (ClusterView, Graph, Measure, cut_capacity,
                           parse_edge_list, subdivide)
from treecut.tree import mincut_in_tree

# denominators of the random masses below
DENOMINATORS = (1, 3, 7, 384)


def random_graph(rng, n, p, max_cap):
    """G(n, p) on vertices 0..n-1 with capacities uniform in 1..max_cap.

    Pairs are visited in (i, j) order, i < j, and each draws rng.random()
    and then, for a kept edge, rng.randint(1, max_cap), so a seeded rng
    always yields the same graph."""
    edges = [(i, j, rng.randint(1, max_cap)) for i in range(n)
             for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def k_n(n, cap=1):
    """The complete graph on 0..n-1, every edge of capacity cap."""
    return Graph(range(n), [(i, j, cap) for i in range(n)
                            for j in range(i + 1, n)])


def dumbbell():
    """Two triangles 0-1-2 and 3-4-5 joined by the unit bridge 2-3."""
    return parse_edge_list("0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")


def cycle(n):
    """The n-cycle 0-1-...-(n-1)-0 with unit capacities."""
    return Graph(range(n), [(i, (i + 1) % n, 1) for i in range(n)])


def path(n):
    """The path 0-1-...-(n-1) with unit capacities."""
    return Graph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def bridged_triangles(k):
    """k triangles of capacity 3 joined in a path by edges of capacity 1;
    both build modes nest their trees k internal levels deep."""
    edges = []
    for c in range(k):
        a, b, d = 3 * c, 3 * c + 1, 3 * c + 2
        edges += [(a, b, 3), (b, d, 3), (a, d, 3)]
        if c + 1 < k:
            edges.append((d, d + 1, 1))
    return Graph(range(3 * k), edges)


def ring_of_cliques(k, s):
    """k cliques of s vertices (capacity 3) joined in a ring by unit edges,
    numbered clique by clique, as in the benchmark's rings workload."""
    edges = []
    for c in range(k):
        base = c * s
        edges += [(base + i, base + j, 3)
                  for i in range(s) for j in range(i + 1, s)]
        edges.append((base + s - 1, ((c + 1) % k) * s, 1))
    return Graph(range(k * s), edges)


def grid(rows, cols):
    """The rows x cols grid with unit capacities, numbered row by row."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return Graph(range(rows * cols), edges)


def triangle_chain():
    """Four triangles in a path with unit bridges; every triangle is tied to
    a hub vertex with huge capacity, so the bridges are genuinely sparse
    against the boundary measure and the refinement of 0..11 splits and
    routes."""
    edges = []
    for t in range(4):
        b = 3 * t
        edges += [(b, b + 1, 50), (b, b + 2, 50), (b + 1, b + 2, 50)]
    edges += [(2, 3, 1), (5, 6, 1), (8, 9, 1)]
    for t in range(4):
        edges.append((3 * t, 12, 10 ** 5))
    return Graph(range(13), edges)


def refining_pairs():
    """The heavy pairs {0, 1} and {2, 3} joined by the unit edge 1-2, each
    tied to the heavy pair {4, 5} by an edge of capacity 1000, with 6
    hanging off 5 by a third.  The improved build's merge phase keeps
    {0, 1, 2, 3} as one cluster, and its refinement splits it into the two
    pairs at the default Config: against the boundary measure the unit
    edge is 1/1000-sparse."""
    h = 10 ** 5
    return Graph(range(7), [(0, 1, h), (1, 2, 1), (2, 3, h), (3, 4, 1000),
                            (4, 5, h), (1, 5, 1000), (5, 6, 1000)])


def view_of(g, cluster):
    """The cluster's view in the subdivision of g."""
    return ClusterView(subdivide(g), cluster)


def labelled_graph(rng, n, labels=None):
    """Random capacities 1..8, edge density from sparse (usually
    disconnected) to dense, and, when `labels` is set, vertex ids that are
    not 0..n-1."""
    ids = labels or list(range(n))
    p = rng.choice((0.15, 0.4, 0.8))
    return Graph(ids, [(ids[i], ids[j], rng.randint(1, 8))
                       for i in range(n) for j in range(i + 1, n)
                       if rng.random() < p])


def random_measure(rng, vertices):
    """Zero-weight vertices, and weights drawn as fractions over mixed
    DENOMINATORS, each times their lcm: int weights in the same ratios."""
    scale = lcm(*DENOMINATORS)
    return Measure({v: rng.choice((0, 0, 1, 2, 5))
                    * (scale // rng.choice(DENOMINATORS))
                    for v in vertices})


def random_demand(rng, n, pairs=3):
    """1..pairs commodities on vertices 0..n-1, each sending 1..4 units
    between two distinct vertices."""
    entries = {}
    for k in range(rng.randint(1, pairs)):
        u, v = rng.sample(range(n), 2)
        a = Fraction(rng.randint(1, 4))
        entries[(u, k)] = entries.get((u, k), Fraction(0)) + a
        entries[(v, k)] = entries.get((v, k), Fraction(0)) - a
    return DemandState(entries)


def restrict(p, vs):
    """The entries of the demand state p at the vertices vs."""
    vs = frozenset(vs)
    return DemandState({(v, k): a for (v, k), a in p.entries.items()
                        if v in vs})


def product_growth_ok(k: int, c) -> bool:
    """prod_{l=1}^{k} (1 + c/l) <= k^(2c), checked exactly when 4c is an
    integer (square both sides to clear the half-integral exponent)."""
    c = Fraction(c)
    e = 4 * c
    if e.denominator != 1:
        raise ValueError("needs 4c integral")
    prod = Fraction(1)
    for l in range(1, k + 1):
        prod *= 1 + c / l
    return prod ** 2 <= Fraction(k) ** int(e)


def reference_unit_rows(rows):
    """{x: [(sink, share)]}: the recorded Fraction rows of a stored flow
    per unit of each source's row total, summed per sink other than the
    source in first-seen order, zeros dropped."""
    out = {}
    for x, row in rows.items():
        unit = sum((a for _, a in row), Fraction(0))
        acc = {}
        for sink, amt in row:
            if sink != x:
                acc[sink] = acc.get(sink, Fraction(0)) + amt / unit
        out[x] = [(sink, a) for sink, a in acc.items() if a]
    return out


def vector(p, v):
    """{commodity: mass} of the demand state p at vertex v."""
    return {k: a for (u, k), a in p.entries.items() if u == v}


def reference_update(p, q):
    """P^(up Q) entry by entry: every matrix entry rescans P for the
    source's vector."""
    loads = p.loads()
    out = dict(p.entries)
    row = {}
    for (u, v), a in q.entries.items():
        row[u] = row.get(u, Fraction(0)) + a
    for u, sent in row.items():
        if sent > 0 and loads.get(u, Fraction(0)) == 0:
            raise DemandError("update source %r has zero load" % (u,))
    for (u, v), a in q.entries.items():
        lu = loads[u]
        for k, m in vector(p, u).items():
            share = (m / lu) * a
            out[(v, k)] = out.get((v, k), Fraction(0)) + share
    for u, sent in row.items():
        if sent == 0:
            continue
        lu = loads[u]
        for k, m in vector(p, u).items():
            out[(u, k)] = out.get((u, k), Fraction(0)) - (m / lu) * sent
    return DemandState(out)


def reference_spread(mass, targets, weight_of, den=1):
    """DemandMatrix.spread in Fraction, the masses taken over den."""
    vs = sorted(targets)
    w = {v: Fraction(weight_of(v)) for v in vs}
    total = sum(w.values(), Fraction(0))
    if total == 0:
        raise DemandError("spread needs positive total target weight")
    entries = {}
    for u in sorted(mass):
        m = Fraction(mass[u]) / den
        for v in vs:
            if v != u:
                entries[(u, v)] = m * w[v] / total
    return DemandMatrix(entries)


def reference_add(p, q):
    """p + q entry by entry, zero sums dropped when the state is built."""
    out = dict(p.entries)
    for key, a in q.entries.items():
        out[key] = out.get(key, Fraction(0)) + a
    return DemandState(out)


def reference_sum(states):
    """The states chained by reference_add from an empty state."""
    total = DemandState()
    for st in states:
        total = reference_add(total, st)
    return total


def reference_leaf_init(p, sub):
    """leaf_init in Fraction: every split node x_e of v gets the share
    c(e)/deg(v) of P(v)."""
    g = sub.base
    out = {}
    for v in g.vertices:
        vec = vector(p, v)
        load = sum((abs(a) for a in vec.values()), Fraction(0))
        deg = g.degree(v)
        if load > deg:
            raise DemandError("leaf_init: load %s exceeds degree %d at "
                              "vertex %r" % (load, deg, v))
        entries = {}
        for u, c in g.adj[v]:
            x = sub.split(v, u)
            for k, a in vec.items():
                entries[(x, k)] = entries.get((x, k), Fraction(0)) \
                    + a * Fraction(c, deg)
        out[v] = DemandState(entries)
    return out


def reference_balanced_clustering(g_s, f_keys):
    """is_balanced_clustering from a Graph of G[S] minus the edges f_keys:
    (each component holds at most 2/3 of S, the components sorted by least
    vertex), the components found by union-find over its edges."""
    f_keys = {(min(k), max(k)) for k in f_keys}
    g = Graph(g_s.vertices, [(u, v, c) for u, v, c in g_s.edges
                             if (u, v) not in f_keys])
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v, _ in g.edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in g.vertices:
        comps.setdefault(find(v), set()).add(v)
    comps = sorted((frozenset(c) for c in comps.values()), key=min)
    n = g_s.vertex_count
    return all(3 * len(c) <= 2 * n for c in comps), comps


def reference_min_ratio(g, den_of):
    """First strict minimizer of cap/den_of(side) over the cuts of g with a
    positive den_of, recomputing every side from scratch in Fraction.  The
    first vertex stays in the side and bit j - 1 of the Gray code stands
    for vertex j, so ties resolve as in min_ratio_cut and respects_exact.
    Returns (ratio, side), or (None, None) when no cut qualifies."""
    verts = g.vertices
    n = len(verts)
    best, best_side = None, None
    for i in range(1 << (n - 1)):
        gray = i ^ (i >> 1)
        side = frozenset([verts[0]] + [verts[j] for j in range(1, n)
                                       if (gray >> (j - 1)) & 1])
        if len(side) == n:
            continue
        den = den_of(side)
        if den > 0:
            ratio = Fraction(cut_capacity(g, side)) / den
            if best is None or ratio < best:
                best, best_side = ratio, side
    return best, best_side


def scale_to_respect(t, p):
    """Largest multiple of p the tree 1-respects (None if impossible)."""
    worst = Fraction(0)
    verts = t.graph.vertex_set()
    for node in t.nodes():
        if node.members == verts:
            continue
        d = p.dem_across(node.members)
        if d == 0:
            continue
        mc = mincut_in_tree(t, node.members)
        if mc == 0:
            return None
        worst = max(worst, d / mc)
    return p.scaled(Fraction(1) / worst) if worst > 1 else p


def brute_tree_mincut(tree, b):
    """Exhaustive side assignment over internal nodes (leaves forced)."""
    nodes = tree.nodes()
    internal = [n for n in nodes if not n.is_leaf]
    best = None
    for bits in itertools.product((False, True), repeat=len(internal)):
        side = {id(n): s for n, s in zip(internal, bits)}
        for n in nodes:
            if n.is_leaf:
                side[id(n)] = next(iter(n.members)) in b
        cost = 0
        for n in nodes:
            for c in n.children:
                if side[id(c)] != side[id(n)]:
                    cost += c.weight
        if best is None or cost < best:
            best = cost
    return best


def brute_min_cut(net):
    """Exhaustive minimum, over vertex sides A, of the terminal-augmented
    cut of a FlowNetwork: sources outside A, sinks inside A, and the scaled
    base edges across A."""
    verts = sorted(net.graph.vertices)
    n = len(verts)
    best = None
    for mask in range(1 << n):
        a = {verts[i] for i in range(n) if (mask >> i) & 1}
        val = sum((c for v, c in net.source_caps.items() if v not in a),
                  Fraction(0))
        val += sum((c for v, c in net.sink_caps.items() if v in a),
                   Fraction(0))
        val += net.edge_scale * Fraction(
            sum(c for u, v, c in net.graph.edges if (u in a) != (v in a)))
        if best is None or val < best:
            best = val
    return best
