"""Shared test graphs, measures and demand states, and the brute-force
tree min-cut and terminal-augmented min cut."""

import itertools
from fractions import Fraction

from treecut.demand import DemandState
from treecut.graph import (ClusterView, Graph, Measure, parse_edge_list,
                           subdivide)
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
    """Mixed denominators and zero-weight vertices."""
    return Measure({v: Fraction(rng.choice((0, 0, 1, 2, 5)),
                                rng.choice(DENOMINATORS))
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
        cost = Fraction(0)
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
