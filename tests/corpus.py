"""Shared random test graphs and the brute-force tree min-cut."""

import itertools
from fractions import Fraction

from treecut.graph import Graph


def random_graph(rng, n, p, max_cap):
    """G(n, p) on vertices 0..n-1 with capacities uniform in 1..max_cap.

    Pairs are visited in (i, j) order, i < j, and each draws rng.random()
    and then, for a kept edge, rng.randint(1, max_cap), so a seeded rng
    always yields the same graph."""
    edges = [(i, j, rng.randint(1, max_cap)) for i in range(n)
             for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


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
