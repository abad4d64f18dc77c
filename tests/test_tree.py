import gc
import hashlib
import itertools
import os
import pickle
import random
from fractions import Fraction

import pytest

from treecut import oracle
from treecut.graph import Graph, capacity, cut_capacity, parse_edge_list
from treecut.tree import (DecompositionTree, TreeError, TreeNode, build_basic,
                          build_improved, mincut_in_tree, node_mincuts)

from corpus import (bridged_triangles, brute_tree_mincut, random_graph,
                    ring_of_cliques)

RING = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                    "ring8.edges")


def proper_sides(g):
    """Every proper nonempty vertex subset of g."""
    verts = sorted(g.vertices)
    for r in range(1, len(verts)):
        for b in itertools.combinations(verts, r):
            yield frozenset(b)


class TestBuildShapes:
    def test_single_vertex(self):
        t = build_basic(Graph([7], []))
        assert len(t.nodes()) == 1
        assert t.root.members == frozenset({7})

    def test_single_edge_both_modes(self):
        g = parse_edge_list("0 1\n")
        for t in (build_basic(g), build_improved(g)):
            kinds = [(sorted(n.members), n.weight) for n in t.nodes()]
            assert kinds == [([0, 1], 0), ([0], 1), ([1], 1)]

    def test_leaf_weights_are_degrees(self):
        rng = random.Random(5)
        g = random_graph(rng, 8, 0.6, 4)
        for t in (build_basic(g), build_improved(g)):
            for leaf in t.leaves():
                v = next(iter(leaf.members))
                assert leaf.weight == g.degree(v)

    def test_all_weights_recompute(self):
        rng = random.Random(6)
        g = random_graph(rng, 9, 0.5, 4)
        for t in (build_basic(g), build_improved(g)):
            verts = g.vertex_set()
            for node in t.nodes():
                assert node.weight == capacity(g, node.members,
                                               verts - node.members)

    def test_validation_rejects_broken_tree(self):
        g = parse_edge_list("0 1\n")
        root = TreeNode([0, 1], "root", 0)
        root.children.append(TreeNode([0], "leaf", 1))
        with pytest.raises(TreeError):
            DecompositionTree(g, root, "basic")

    def test_disconnected_components_under_root(self):
        g = Graph(range(4), [(0, 1, 2), (2, 3, 5)])
        for t in (build_basic(g), build_improved(g)):
            kids = t.root.children
            assert [sorted(c.members) for c in kids] == [[0, 1], [2, 3]]
            assert all(c.weight == 0 for c in kids)

    def test_merge_clusters_shrink_by_two_thirds(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_graph(rng, rng.randint(4, 9), 0.6, 4)
            t = build_basic(g)
            for node in t.nodes():
                if node.kind != "merge-cluster":
                    continue
                # the cluster the merge ran on is the smallest strict
                # superset that is not an intermediate side node
                sup = min((c for c in t.nodes()
                           if node.members < c.members
                           and c.kind != "merge-side"),
                          key=lambda c: len(c.members))
                assert 3 * len(node.members) <= 2 * len(sup.members)


class TestSerialization:
    def test_round_trip_byte_identical(self):
        rng = random.Random(9)
        for _ in range(6):
            g = random_graph(rng, rng.randint(2, 8), 0.5, 4)
            for t in (build_basic(g), build_improved(g)):
                blob = t.to_json()
                again = DecompositionTree.from_json(blob)
                assert again.to_json() == blob

    def test_builds_are_deterministic(self):
        g = Graph(range(8), [(i, (i + 1) % 8, 1) for i in range(8)]
                  + [(0, 4, 2)])
        assert build_basic(g).to_json() == build_basic(g).to_json()
        assert build_improved(g).to_json() == build_improved(g).to_json()

    def test_isolated_vertices_survive(self):
        g = Graph(range(3), [(0, 1, 1)])
        t = build_basic(g)
        again = DecompositionTree.from_json(t.to_json())
        assert again.graph.vertex_set() == frozenset(range(3))

    def test_dot_export_mentions_every_node(self):
        g = parse_edge_list("0 1\n1 2\n")
        t = build_basic(g)
        dot = t.to_dot()
        assert dot.count("label=") >= 2 * len(t.nodes()) - 1

    def test_format_version_enforced(self):
        """Another format version is an input error, not a failed tree."""
        g = parse_edge_list("0 1\n")
        blob = build_basic(g).to_json().replace('"format_version":1',
                                                '"format_version":99')
        with pytest.raises(ValueError) as exc:
            DecompositionTree.from_json(blob)
        assert not isinstance(exc.value, TreeError)


class TestMincutInTree:
    def test_star_hand_values(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        assert mincut_in_tree(t, {0}) == 1
        assert mincut_in_tree(t, {1}) == 1

    def test_complement_of_singleton(self):
        rng = random.Random(11)
        g = random_graph(rng, 7, 0.6, 4)
        t = build_improved(g)
        for v in g.vertices:
            rest = g.vertex_set() - {v}
            assert mincut_in_tree(t, rest) == g.degree(v)

    def test_matches_bruteforce(self):
        rng = random.Random(13)
        graphs = [random_graph(rng, rng.randint(3, 7), 0.55, 4)
                  for _ in range(10)]
        # small random trees are flat; these two have inner nodes
        graphs += [bridged_triangles(2), bridged_triangles(3)]
        checked = 0
        for g in graphs:
            for t in (build_basic(g), build_improved(g)):
                for b in proper_sides(g):
                    got = mincut_in_tree(t, b)
                    assert type(got) is Fraction
                    assert got == brute_tree_mincut(t, b)
                    checked += 1
        assert checked >= 500

    def test_tampered_fractional_weights_stay_exact(self):
        """Weights edited after the build need not be integers: the DP
        rescales them and returns the exact Fraction."""
        g = bridged_triangles(2)
        for t in (build_basic(g), build_improved(g)):
            leaf = t.leaves()[0]
            inner = next(n for n in t.nodes()
                         if n is not t.root and not n.is_leaf)
            leaf.weight = Fraction(1, 2)
            inner.weight = Fraction(7, 3)
            values = set()
            for b in proper_sides(g):
                got = mincut_in_tree(t, b)
                assert type(got) is Fraction
                assert got == brute_tree_mincut(t, b)
                values.add(got)
            assert {v.denominator for v in values} >= {2, 3}

    def test_edits_after_a_query_are_seen(self):
        """The plan kept on the tree, and the min-cuts of the tree's own
        nodes kept with it, are made again after a weight edit and after
        the children are rearranged in place."""
        g = bridged_triangles(2)
        t = build_basic(g)
        sides = list(proper_sides(g))

        def check():
            assert [mincut_in_tree(t, b) for b in sides] \
                == [brute_tree_mincut(t, b) for b in sides]
            scale, nodes, mcs = node_mincuts(t)
            assert nodes == t.nodes()[1:]
            assert [Fraction(mc, scale) for mc in mcs] \
                == [brute_tree_mincut(t, n.members) for n in nodes]

        check()
        t.leaves()[0].weight = Fraction(1, 2)
        check()
        t.root.children[:] = t.leaves()
        check()

    def test_queried_tree_pickles(self):
        g = bridged_triangles(2)
        t = build_improved(g)
        want = mincut_in_tree(t, {0, 1})
        copy = pickle.loads(pickle.dumps(t))
        assert copy.to_json() == t.to_json()
        assert mincut_in_tree(copy, {0, 1}) == want

    def test_lone_leaf_root_costs_nothing(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        t.root.children = []
        got = mincut_in_tree(t, {0})
        assert type(got) is Fraction and got == 0

    def test_trivial_queries_rejected(self):
        g = parse_edge_list("0 1\n")
        t = build_basic(g)
        with pytest.raises(TreeError):
            mincut_in_tree(t, set())
        with pytest.raises(TreeError):
            mincut_in_tree(t, {0, 1})


class TestLowerBound:
    def test_tree_cut_dominates_graph_cut_exhaustively(self):
        g = Graph(range(8), [(i, (i + 1) % 8, 1) for i in range(8)]
                  + [(0, 4, 2), (1, 5, 1)])
        for t in (build_basic(g), build_improved(g)):
            for r in range(1, 8):
                for b in itertools.combinations(range(8), r):
                    assert cut_capacity(g, frozenset(b)) \
                        <= mincut_in_tree(t, b)

    def test_lower_bound_random(self):
        rng = random.Random(17)
        for _ in range(8):
            g = random_graph(rng, rng.randint(4, 9), 0.5, 4)
            for t in (build_basic(g), build_improved(g)):
                for _ in range(10):
                    k = rng.randint(1, g.vertex_count - 1)
                    b = frozenset(rng.sample(sorted(g.vertices), k))
                    assert cut_capacity(g, b) <= mincut_in_tree(t, b)


def pinned_graph(name):
    if name == "ring8":
        with open(RING) as fh:
            return parse_edge_list(fh.read())
    if name == "bridged-triangles":
        return bridged_triangles(2)       # two nested merge levels
    # two components and an isolated vertex under the root
    return Graph(range(7), [(0, 1, 2), (1, 2, 1), (0, 2, 1), (4, 5, 2),
                            (5, 6, 1)])


TREE_PINS = {
    ("ring8", "basic"):
    "67a9a6c1e1b619f365026b38d21fe937c3128b98b279866701f520933163eaab",
    ("ring8", "improved"):
    "467e49ba2708f44d80e53efca9230625a221d928b56ec682d5c989da5c6544c0",
    ("bridged-triangles", "basic"):
    "8f1da7c5ba7daec7c073fdaef1fa394198d3746c9789112f0469fb1384914f22",
    ("bridged-triangles", "improved"):
    "946f585d00266e734dba386da1feea857999006f82410c56a331cf286184ede2",
    ("components", "basic"):
    "83027614cd1acd7c71aa6259af6290da5b7c8e17a0723af66ac4f74424e40699",
    ("components", "improved"):
    "5ef947608c116c2aa49b3add5d2c24347633fbd6d182590a5ad543ebe46d8bdd",
}


@pytest.mark.parametrize("build", [build_basic, build_improved])
@pytest.mark.parametrize("name", ["ring8", "bridged-triangles",
                                  "components"])
def test_tree_bytes_pinned(name, build, monkeypatch):
    # the pin holds on every scipy/LAPACK build only while no oracle call
    # reaches the float sweep backend
    sweeps = []
    sweep_best = oracle._sweep_best

    def counted(*args):
        sweeps.append(args)
        return sweep_best(*args)

    monkeypatch.setattr(oracle, "_sweep_best", counted)
    t = build(pinned_graph(name))
    assert not sweeps
    digest = hashlib.sha256(t.to_json().encode()).hexdigest()
    assert digest == TREE_PINS[name, t.mode]


@pytest.mark.parametrize("build", [build_basic, build_improved])
def test_build_leaves_no_function_in_a_cycle(build):
    """A function in a reference cycle after the build (a recursive nested
    closure) would hold the build's graphs and views until a full
    collection."""
    g = ring_of_cliques(4, 5)
    build(g)                    # warm: imports and first-call caches
    enabled, flags, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        build(g)
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage[start:]}
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
        if enabled:
            gc.enable()
    assert not kinds & {"function", "cell"}
