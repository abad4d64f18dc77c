"""Hierarchical decomposition trees over a capacitated graph.

Two build modes: `build_basic` recurses on the merge phase alone with a
small separator weight, while `build_improved` alternates a full-weight
merge phase with the boundary-expansion refinement.  Tree edges are
weighted by the capacity the child set cuts out of the whole graph, so the
tree answers cut queries through `mincut_in_tree`.
"""

import json
import math
from fractions import Fraction

from .config import DEFAULT, Config
from .graph import (Graph, capacity, format_edge_list, parse_edge_list,
                    subdivide)
from .merge import merge_phase
from .oracle import _log2n
from .refine import refine
from .util import frac_str, parse_frac


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
        self.weight = Fraction(weight)
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
            want = Fraction(capacity(g, node.members,
                                     g.vertex_set() - node.members))
            if node.weight != want:
                raise TreeError("edge weight does not match the graph cut")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        def enc(node):
            rec = {"members": sorted(node.members),
                   "kind": node.kind,
                   "weight": frac_str(node.weight)}
            if node.info:
                rec["info"] = {k: (frac_str(v) if isinstance(v, Fraction)
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
                            parse_frac(_field(rec, "weight", str)),
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
                                frac_str(c.weight)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _node(g: Graph, members, kind, info=None) -> TreeNode:
    w = Fraction(capacity(g, members, g.vertex_set() - frozenset(members)))
    return TreeNode(members, kind, w, info)


def _attach_components(g: Graph, kind_root: str):
    """Root node; components become explicit children when g splits."""
    root = _node(g, g.vertex_set(), kind_root)
    comps = g.components()
    if len(comps) == 1:
        return root, [(root, comps[0])]
    work = []
    for comp in sorted(comps, key=min):
        child = _node(g, comp, "component")
        root.children.append(child)
        work.append((child, comp))
    root.sort_children()
    return root, work


def _grow_merge(g: Graph, sub, node: TreeNode, cluster, tau, cfg: Config,
                grow_child):
    """Run the merge phase on cluster with separator weight tau and hang its
    sub-clusters below node: under a merge-side holder for each side of the
    separator, or directly when a side is the whole cluster.  Then
    grow_child(child, sub-cluster) continues below every sub-cluster."""
    if len(cluster) == 1:
        return
    part = merge_phase(sub.view(cluster), tau, cfg)
    node.detail = part
    node.info["tau"] = tau
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
            child = _node(g, p, "leaf" if len(p) == 1 else "merge-cluster")
            holder.children.append(child)
            grow_child(child, p)
        holder.sort_children()
    node.sort_children()


def build_basic(g: Graph, cfg: Config = DEFAULT) -> DecompositionTree:
    if g.vertex_count == 0:
        raise TreeError("empty graph")
    tau = cfg.tau_basic
    if tau is None:
        tau = Fraction(1) / _log2n(g.vertex_count)
    tau = Fraction(tau)
    sub = subdivide(g)

    def grow(node, cluster):
        _grow_merge(g, sub, node, cluster, tau, cfg, grow)

    root, work = _attach_components(g, "root")
    for holder, comp in work:
        grow(holder, comp)
    return DecompositionTree(g, root, "basic")


def build_improved(g: Graph, cfg: Config = DEFAULT) -> DecompositionTree:
    if g.vertex_count == 0:
        raise TreeError("empty graph")
    sub = subdivide(g)

    def grow_merge(node, cluster, sigma):
        """Merge with full separator weight, then refine each sub-cluster
        against the enclosing refinement cluster size sigma."""
        _grow_merge(g, sub, node, cluster, Fraction(1), cfg,
                    lambda child, p: grow_refine(child, p, sigma))

    def grow_refine(node, cluster, sigma):
        if len(cluster) == 1:
            return
        if 2 * sigma < 3 * len(cluster):
            raise TreeError("merge phase broke its 2/3 size contract "
                            "(sigma=%d, |S|=%d)" % (sigma, len(cluster)))
        res = refine(sub.view(cluster), sigma, cfg)
        node.refinement = res
        node.info["sigma"] = sigma
        if res.clusters == (frozenset(cluster),):
            grow_merge(node, cluster, len(cluster))
            return
        for r in res.clusters:
            child = _node(g, r, "leaf" if len(r) == 1 else "refine-cluster")
            node.children.append(child)
            grow_merge(child, r, len(r))
        node.sort_children()

    root, work = _attach_components(g, "root")
    for holder, comp in work:
        # the whole component plays the part of the first refinement
        # cluster, so sigma starts at its size
        grow_merge(holder, comp, len(comp))
    return DecompositionTree(g, root, "improved")


def mincut_plan(tree: DecompositionTree):
    """Plan the tree min-cut dynamic program once and return query(b), the
    minimum total weight of tree edges separating the leaves of b from the
    rest, as a Fraction.  query does not check b: it must be a proper
    nonempty subset of the tree's vertices.

    Each node is on b's side or not, and a child edge pays its weight when
    the sides differ.  A leaf's side is fixed by its vertex, so a leaf child
    adds its weight to exactly one of its parent's two states and needs no
    state of its own.  The plan lists the internal nodes in post-order, each
    with its leaf children as (vertex, weight) and its internal children as
    (plan index, weight).  Weights are scaled by the lcm of their
    denominators, so the DP runs on ints; the lcm is 1 for every tree that
    passed validate().  The plan copies the weights: edit the tree, plan
    again."""
    scale = math.lcm(*(node.weight.denominator for node in tree.root.walk()))
    plan = []

    def add(node):
        leaves, inner = [], []
        for c in node.children:
            w = c.weight.numerator * (scale // c.weight.denominator)
            if c.is_leaf:
                leaves.append((next(iter(c.members)), w))
            else:
                inner.append((add(c), w))
        plan.append((leaves, inner))
        return len(plan) - 1

    add(tree.root)

    def query(b):
        cost = []
        for leaves, inner in plan:
            cost_in = cost_out = 0
            for v, w in leaves:
                if v in b:
                    cost_out += w
                else:
                    cost_in += w
            for i, w in inner:
                ci, co = cost[i]
                cost_in += min(ci, co + w)
                cost_out += min(co, ci + w)
            cost.append((cost_in, cost_out))
        return Fraction(min(cost[-1]), scale)

    return query


def mincut_in_tree(tree: DecompositionTree, b):
    """Minimum total weight of tree edges separating the leaves of b from
    the rest (see mincut_plan).  To answer many queries on one tree, plan
    once with mincut_plan."""
    b = frozenset(b)
    verts = tree.graph.vertex_set()
    if not b or b >= verts:
        raise TreeError("query side must be a proper nonempty subset")
    if not b <= verts:
        raise TreeError("query side contains unknown vertices")
    return mincut_plan(tree)(b)
