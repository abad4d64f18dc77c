"""Shared random test graphs."""

from treecut.graph import Graph


def random_graph(rng, n, p, max_cap):
    """G(n, p) on vertices 0..n-1 with capacities uniform in 1..max_cap.

    Pairs are visited in (i, j) order, i < j, and each draws rng.random()
    and then, for a kept edge, rng.randint(1, max_cap), so a seeded rng
    always yields the same graph."""
    edges = [(i, j, rng.randint(1, max_cap)) for i in range(n)
             for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)
