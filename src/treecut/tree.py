"""Hierarchical decomposition trees over a capacitated graph.

Both build modes grow a tree top-down in one work loop (`_grow`): each
connected component is a cluster, and a merge phase splits a cluster into
the sub-clusters that hang below it.  `build_basic` runs merge phases alone
with a small separator weight.  `build_improved` is the Racke-Shah-Taubig
construction with one more step: full-weight merge phases, each merge
sub-cluster refined for boundary expansion before it is merged in turn.
The replay (`replay.full_replay`) walks the finished tree bottom-up.  Tree
edges are weighted by the capacity the child set cuts out of the whole
graph, so the tree answers cut queries through `mincut_in_tree`.
"""

import itertools
import json
from fractions import Fraction

import numpy as np

from .graph import (Graph, capacity, format_edge_list, parse_edge_list,
                    subdivide)
from .merge import merge_phase
from .oracle import _fiedler_memo, _log2n
from .refine import refine
from .util import int_dtype


class TreeError(ValueError):
    pass


FORMAT_VERSION = 1


def _field(rec, key, kind, default=None):
    """rec[key], which must be a kind; ValueError for a malformed document."""
    if not isinstance(rec, dict):
        raise ValueError("tree document: expected an object, got %s"
                         % type(rec).__name__)
    value = rec.get(key, default)
    if not isinstance(value, kind):
        raise ValueError("tree document: %r must be a %s"
                         % (key, kind.__name__))
    return value


def _weight(rec):
    """rec's weight, an int written as str writes it: "6", not "6.0",
    "12/2" or " 6"."""
    text = _field(rec, "weight", str)
    if not text.removeprefix("-").isdecimal() or str(int(text)) != text:
        raise ValueError("tree document: 'weight' must be an integer, "
                         "not %r" % text)
    return int(text)


def _vertices(rec, key):
    value = _field(rec, key, list)
    if not all(type(v) is int for v in value):
        raise ValueError("tree document: %r must list integer vertices" % key)
    return value


class TreeNode:
    def __init__(self, members, kind, weight, info=None):
        self.members = frozenset(members)
        self.kind = kind          # root|component|merge-side|merge-cluster|
        #                           refine-cluster|leaf
        self.weight = weight      # int: the graph cut of the members
        self.info = dict(info or {})   # JSON-stable provenance fields
        self.children = []
        self.detail = None        # in-memory merge partition (not serialized)
        self.refinement = None    # in-memory refinement result (improved)

    @property
    def is_leaf(self):
        return not self.children

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def sort_children(self):
        self.children.sort(key=lambda c: min(c.members))


class DecompositionTree:
    def __init__(self, graph: Graph, root: TreeNode, mode: str):
        self.graph = graph
        self.root = root
        self.mode = mode
        self.validate()
        self._mincut = None       # see mincut_plan
        # the SubdivisionGraph the build used (set by _grow); the replay
        # reads it.  A tree read from JSON holds None.
        self.sub = None

    def __getstate__(self):
        # the kept min-cut plan holds closures, which do not pickle; a
        # copy plans again
        return dict(self.__dict__, _mincut=None)

    def nodes(self):
        return list(self.root.walk())

    def leaves(self):
        return [n for n in self.root.walk() if n.is_leaf]

    def validate(self):
        g = self.graph
        if self.root.members != g.vertex_set():
            raise TreeError("root must hold every vertex")
        for node in self.root.walk():
            if node.children:
                seen = set()
                for c in node.children:
                    if not c.members or not c.members <= node.members:
                        raise TreeError("child escapes its parent")
                    if seen & c.members:
                        raise TreeError("children overlap")
                    seen |= c.members
                if seen != node.members:
                    raise TreeError("children do not partition their parent")
                order = [min(c.members) for c in node.children]
                if order != sorted(order):
                    raise TreeError("children are not canonically ordered")
            else:
                if len(node.members) != 1:
                    raise TreeError("leaves must be singletons")
            want = capacity(g, node.members, g.vertex_set() - node.members)
            if node.weight != want:
                raise TreeError("edge weight does not match the graph cut")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        def enc(node):
            rec = {"members": sorted(node.members),
                   "kind": node.kind,
                   "weight": str(node.weight)}
            if node.info:
                rec["info"] = {k: (str(v) if isinstance(v, Fraction)
                                   else v)
                               for k, v in sorted(node.info.items())}
            if node.children:
                rec["children"] = [enc(c) for c in node.children]
            return rec

        doc = {"format_version": FORMAT_VERSION,
               "mode": self.mode,
               "vertices": sorted(self.graph.vertices),
               "graph": format_edge_list(self.graph),
               "tree": enc(self.root)}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DecompositionTree":
        """A document of the wrong shape or of an unsupported format
        version raises ValueError; a well-formed tree that contradicts its
        graph raises TreeError."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("tree document nests too deeply") from None
        if _field(doc, "format_version", object) != FORMAT_VERSION:
            raise ValueError("tree document: unsupported format version")
        mode = _field(doc, "mode", str)
        if mode not in ("basic", "improved"):
            raise ValueError("tree document: unknown mode %r" % mode)
        graph = _field(doc, "graph", str)
        edges = parse_edge_list(graph).edges if graph.strip() else []
        g = Graph(_vertices(doc, "vertices"), edges)

        def dec(rec):
            node = TreeNode(_vertices(rec, "members"),
                            _field(rec, "kind", str),
                            _weight(rec),
                            _field(rec, "info", dict, {}))
            for c in _field(rec, "children", list, []):
                node.children.append(dec(c))
            return node

        return cls(g, dec(doc.get("tree")), mode)

    def to_dot(self) -> str:
        lines = ["graph decomposition {", "  node [shape=box];"]
        ids = {}
        for i, node in enumerate(self.root.walk()):
            ids[id(node)] = i
            label = "{%s}" % ",".join(str(v) for v in sorted(node.members)) \
                if len(node.members) <= 8 else "|%d|" % len(node.members)
            lines.append('  n%d [label="%s\\n%s"];' % (i, label, node.kind))
        for node in self.root.walk():
            for c in node.children:
                lines.append('  n%d -- n%d [label="%s"];'
                             % (ids[id(node)], ids[id(c)],
                                c.weight))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _node(g: Graph, members, kind, info=None) -> TreeNode:
    w = capacity(g, members, g.vertex_set() - frozenset(members))
    return TreeNode(members, kind, w, info)


@_fiedler_memo()
def _grow(g: Graph, mode: str, tau) -> DecompositionTree:
    """Grow the tree top-down from one work list of (node, cluster, sigma)
    items, depth first.  sigma None is a merge step: the merge phase with
    separator weight tau splits the cluster, and its sub-clusters hang below
    node, under a merge-side holder for each side of the separator that is
    not the whole cluster.  An improved build refines each sub-cluster
    against sigma, the size of the cluster merged, and then merges each of
    its refinement clusters.

    Each call solves each distinct sweep eigenproblem once (_fiedler_memo)
    and keeps no solution once it returns."""
    if g.vertex_count == 0:
        raise TreeError("empty graph")
    sub = subdivide(g)
    root = _node(g, g.vertex_set(), "root")
    comps = g.components()
    if len(comps) == 1:
        work = [(root, comps[0], None)]
    else:
        root.children = [_node(g, comp, "component")
                         for comp in sorted(comps, key=min)]
        work = [(c, c.members, None) for c in reversed(root.children)]
    while work:
        node, cluster, sigma = work.pop()
        if len(cluster) == 1:
            continue
        steps = []
        if sigma is None:
            part = merge_phase(sub.view(cluster), tau)
            node.detail = part
            node.info["tau"] = tau
            sigma = len(cluster) if mode == "improved" else None
            for side, parts in ((part.l_side, part.l_parts),
                                (part.r_side, part.r_parts)):
                if not side:
                    continue
                if side == cluster:
                    holder = node
                else:
                    holder = _node(g, side, "merge-side")
                    node.children.append(holder)
                for p in parts:
                    child = _node(g, p,
                                  "leaf" if len(p) == 1 else "merge-cluster")
                    holder.children.append(child)
                    steps.append((child, p, sigma))
                holder.sort_children()
        else:
            if 2 * sigma < 3 * len(cluster):
                raise TreeError("merge phase broke its 2/3 size contract "
                                "(sigma=%d, |S|=%d)" % (sigma, len(cluster)))
            res = refine(sub.view(cluster), sigma)
            node.refinement = res
            node.info["sigma"] = sigma
            if res.clusters == (frozenset(cluster),):
                steps.append((node, cluster, None))
            else:
                for r in res.clusters:
                    child = _node(g, r,
                                  "leaf" if len(r) == 1 else "refine-cluster")
                    node.children.append(child)
                    steps.append((child, r, None))
        node.sort_children()
        work.extend(reversed(steps))
    tree = DecompositionTree(g, root, mode)
    tree.sub = sub
    return tree


def build_basic(g: Graph) -> DecompositionTree:
    """Merge phases alone, with the small separator weight 1/log2 n."""
    return _grow(g, "basic", Fraction(1) / _log2n(g.vertex_count))


def build_improved(g: Graph) -> DecompositionTree:
    """Full-weight merge phases, each sub-cluster refined before it is
    merged."""
    return _grow(g, "improved", Fraction(1))


# cut_sides, a min-cut query and verify_quality's scoring work on chunks of
# rows of about this many rows x vertices entries, which bounds their index
# arrays and DP state whatever the number of cuts.
_CELLS = 1 << 15


def _row_chunks(rows, width):
    step = max(1, _CELLS // max(1, width))
    return [(start, min(start + step, rows))
            for start in range(0, rows, step)]


def cut_sides(vertices, cuts):
    """Boolean matrix of the cuts: one row per cut, one column per vertex of
    the sorted sequence `vertices`, True where the vertex is on the cut's
    side.  Every vertex of every cut must be in `vertices`."""
    column = {v: i for i, v in enumerate(vertices)}
    cuts = list(cuts)
    side = np.zeros((len(cuts), len(column)), bool)
    for start, stop in _row_chunks(len(cuts), len(column)):
        chunk = cuts[start:stop]
        sizes = np.fromiter(map(len, chunk), np.intp, len(chunk))
        cols = np.fromiter(map(column.__getitem__, itertools.chain(*chunk)),
                           np.intp, int(sizes.sum()))
        side[np.repeat(np.arange(start, start + len(chunk)), sizes),
             cols] = True
    return side


def _unchanged(tree: DecompositionTree, root, graph, seen):
    """Whether the tree still has this root and graph and every node in
    seen the weight, members and children it had."""
    return tree.root is root and tree.graph is graph and all(
        node.weight is w and node.members is m and node.children == kids
        for node, w, m, kids in seen)


def mincut_plan(tree: DecompositionTree):
    """Plan the tree min-cut dynamic program and return its query.
    query(side) takes a cut_sides matrix over the tree's sorted vertices
    and returns, per row, the minimum total weight of tree edges
    separating the leaves on the row's side from the rest, as an array of
    ints.  query does not check its rows: each must be a proper nonempty
    subset of the vertices.

    Each internal node is on the side or not, and a child edge pays its
    weight when the sides differ.  A leaf's side is fixed by its vertex, so
    a leaf child adds its weight to exactly one of its parent's two states
    and needs no state of its own: one sum per group of leaf siblings gives
    both states of every internal node, from its leaf children, for every
    row.  The internal child edges then fold each child's states into its
    parent's, children before parents, one array operation per edge over
    all rows.  Every weight must be an int (a weight of another type, set
    after the build, raises TreeError: numpy would floor a Fraction in an
    int64 array).  The arrays are int64 when the weights sum below 2^62,
    which bounds every DP value, and Python ints otherwise.

    The plan is kept on the tree and made again once a node's weight,
    members or children are not the objects it was made from, so an edited
    tree is never answered from its old weights."""
    kept = tree._mincut
    if kept is not None and _unchanged(tree, *kept["made from"]):
        return kept["plan"]
    column = {v: i for i, v in enumerate(tree.graph.vertices)}
    leaves, inner = [], []    # (column, parent, w) and (child, parent, w)
    # the leaf children of internal node owners[g] are leaves[starts[g]:]
    # up to the next group
    starts, owners = [], []
    seen = []                 # (node, weight, members, children)
    internal = []

    def add(node):
        kids = [(add(c) if c.children else None, c) for c in node.children]
        j = len(internal)
        internal.append(node)
        seen.append((node, node.weight, node.members, list(node.children)))
        first = len(leaves)
        for i, c in kids:
            if type(c.weight) is not int:
                raise TreeError("edge weight %r of %r is not an int"
                                % (c.weight, sorted(c.members)))
            if i is None:
                leaves.append((column[next(iter(c.members))], j, c.weight))
                seen.append((c, c.weight, c.members, []))
            else:
                inner.append((i, j, c.weight))
        if len(leaves) > first:
            starts.append(first)
            owners.append(j)
        return j

    add(tree.root)
    dtype = int_dtype(sum(w for _, _, w in leaves + inner))
    cols = np.array([col for col, _, _ in leaves], np.intp)
    starts, owners = np.array(starts, np.intp), np.array(owners, np.intp)
    leaf_w = np.array([w for _, _, w in leaves], dtype)[:, None]
    leaf_total = np.zeros((len(internal), 1), dtype)
    leaf_total[owners] = np.add.reduceat(leaf_w, starts)
    edges = [(i, j, w) for (i, j, _), w in
             zip(inner, np.array([w for _, _, w in inner], dtype))]

    def run(side):
        # state[j] = (cost with node j on the side, cost with j off it):
        # the leaf children off the side pay in the first, those on it in
        # the second
        state = np.zeros((len(internal), 2, len(side)), dtype)
        state[owners, 1] = np.add.reduceat(side.T[cols] * leaf_w, starts)
        state[:, 0] = leaf_total - state[:, 1]
        for i, j, w in edges:
            child = state[i]
            state[j] += np.minimum(child, child[::-1] + w)
        return np.minimum(state[-1, 0], state[-1, 1])

    def query(side):
        chunks = _row_chunks(len(side), len(column))
        if len(chunks) <= 1:
            return run(side)
        return np.concatenate([run(side[start:stop])
                               for start, stop in chunks])

    tree._mincut = {"made from": (tree.root, tree.graph, seen),
                    "plan": query}
    return query


def node_mincuts(tree: DecompositionTree):
    """(nodes, mcs): every node of the tree but the root, in walk order,
    and the tree min-cut of its members (see mincut_plan).  Kept with the
    plan, so repeated calls on an unedited tree cost one check."""
    query = mincut_plan(tree)
    kept = tree._mincut
    if "nodes" not in kept:
        verts = tree.graph.vertex_set()
        nodes = [node for node in tree.nodes() if node.members != verts]
        sides = cut_sides(tree.graph.vertices, (n.members for n in nodes))
        kept["nodes"] = nodes, query(sides).tolist()
    return kept["nodes"]


def mincut_in_tree(tree: DecompositionTree, b):
    """Minimum total weight of tree edges separating the leaves of b from
    the rest (see mincut_plan).  To answer many queries on one tree, plan
    once with mincut_plan and pass every cut in one matrix."""
    b = frozenset(b)
    verts = tree.graph.vertex_set()
    if not b or b >= verts:
        raise TreeError("query side must be a proper nonempty subset")
    if not b <= verts:
        raise TreeError("query side contains unknown vertices")
    query = mincut_plan(tree)
    side = np.fromiter(map(b.__contains__, tree.graph.vertices), bool)
    return int(query(side[None])[0])
