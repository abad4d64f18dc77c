"""Hierarchical decomposition trees over a capacitated graph.

Two build modes: `build_basic` recurses on the merge phase alone with a
small separator weight, while `build_improved` alternates a full-weight
merge phase with the boundary-expansion refinement.  Tree edges are
weighted by the capacity the child set cuts out of the whole graph, so the
tree answers cut queries through `mincut_in_tree`.
"""

import json
from fractions import Fraction

from .config import DEFAULT, Config
from .graph import (ClusterView, Graph, capacity, format_edge_list, subdivide)
from .merge import merge_phase
from .oracle import _log2n
from .refine import refine
from .util import frac_str, parse_frac


class TreeError(ValueError):
    pass


FORMAT_VERSION = 1


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
        doc = json.loads(text)
        if doc.get("format_version") != FORMAT_VERSION:
            raise TreeError("unsupported format version")
        from .graph import parse_edge_list
        parsed = parse_edge_list(doc["graph"]) if doc["graph"].strip() \
            else None
        edges = parsed.edges if parsed is not None else []
        g = Graph(doc["vertices"], edges)

        def dec(rec):
            node = TreeNode(rec["members"], rec["kind"],
                            parse_frac(rec["weight"]))
            if "info" in rec:
                node.info = dict(rec["info"])
            for c in rec.get("children", ()):
                node.children.append(dec(c))
            return node

        return cls(g, dec(doc["tree"]), doc["mode"])

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


def build_basic(g: Graph, cfg: Config = DEFAULT, tau=None) \
        -> DecompositionTree:
    if g.vertex_count == 0:
        raise TreeError("empty graph")
    if tau is None:
        tau = cfg.tau_basic
    if tau is None:
        tau = Fraction(1) / _log2n(g.vertex_count)
    tau = Fraction(tau)
    sub = subdivide(g)

    def grow(node, cluster):
        if len(cluster) == 1:
            return
        part = merge_phase(ClusterView(sub, cluster), tau, cfg)
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
                child = _node(g, p, "leaf" if len(p) == 1
                              else "merge-cluster")
                holder.children.append(child)
                grow(child, p)
            holder.sort_children()
        node.sort_children()

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
        if len(cluster) == 1:
            return
        part = merge_phase(ClusterView(sub, cluster), Fraction(1), cfg)
        node.detail = part
        node.info["tau"] = Fraction(1)
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
                child = _node(g, p, "leaf" if len(p) == 1
                              else "merge-cluster")
                holder.children.append(child)
                grow_refine(child, p, sigma)
            holder.sort_children()
        node.sort_children()

    def grow_refine(node, cluster, sigma):
        if len(cluster) == 1:
            return
        if 2 * sigma < 3 * len(cluster):
            raise TreeError("merge phase broke its 2/3 size contract "
                            "(sigma=%d, |S|=%d)" % (sigma, len(cluster)))
        res = refine(ClusterView(sub, cluster), sigma, cfg)
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


def mincut_in_tree(tree: DecompositionTree, b):
    """Minimum total weight of tree edges separating the leaves of b from
    the rest, by a two-state dynamic program (each node is on b's side or
    not; a child edge pays its weight when the sides differ)."""
    b = frozenset(b)
    verts = tree.graph.vertex_set()
    if not b or b >= verts:
        raise TreeError("query side must be a proper nonempty subset")
    if not b <= verts:
        raise TreeError("query side contains unknown vertices")

    def solve(node):
        if node.is_leaf:
            v = next(iter(node.members))
            inb = v in b
            return (Fraction(0) if inb else None,
                    None if inb else Fraction(0))
        cost_in, cost_out = Fraction(0), Fraction(0)
        for c in node.children:
            ci, co = solve(c)
            w = c.weight
            opts_in = [x for x in (ci, None if co is None else co + w)
                       if x is not None]
            opts_out = [x for x in (co, None if ci is None else ci + w)
                        if x is not None]
            cost_in = None if (cost_in is None or not opts_in) \
                else cost_in + min(opts_in)
            cost_out = None if (cost_out is None or not opts_out) \
                else cost_out + min(opts_out)
        return cost_in, cost_out

    ci, co = solve(tree.root)
    return min(x for x in (ci, co) if x is not None)
