"""Demand states and demand matrices: validity, cut demands, updates.

A demand state holds signed per-vertex, per-commodity masses; moving mass
with a demand matrix via `update` lets opposite-signed masses cancel, which
is what the charging replay exploits.
"""

from fractions import Fraction

from .graph import Graph, SizeError, SubdivisionGraph, _gray_min_ratio
from .config import DEFAULT


class DemandError(ValueError):
    pass


class DemandMatrix:
    """Sparse nonnegative (source, target) -> amount with zero diagonal."""

    def __init__(self, entries=()):
        self.entries = {}
        for (u, v), a in dict(entries).items():
            a = Fraction(a)
            if a < 0:
                raise DemandError("negative demand entry")
            if u == v:
                raise DemandError("diagonal demand entry at %r" % (u,))
            if a:
                self.entries[(u, v)] = self.entries.get((u, v), Fraction(0)) + a

    def add(self, u, v, a):
        a = Fraction(a)
        if a < 0 or u == v:
            raise DemandError("bad demand entry")
        if a:
            self.entries[(u, v)] = self.entries.get((u, v), Fraction(0)) + a

    def row_sum(self, u):
        return sum((a for (s, _), a in self.entries.items() if s == u), Fraction(0))

    def dem_across(self, side):
        side = frozenset(side)
        tot = Fraction(0)
        for (u, v), a in self.entries.items():
            if (u in side) != (v in side):
                tot += a
        return tot

    def total(self):
        return sum(self.entries.values(), Fraction(0))

    @classmethod
    def all_to_all(cls, vertices, weight_of=None):
        """D(u,v) = w(v)/W for every ordered pair; uniform when weights are 1.

        Matches the all-to-all demand of a set A (each vertex holds one unit
        spread over the set), generalized to capacity-weighted targets.
        """
        vs = sorted(vertices)
        if weight_of is None:
            w = {v: Fraction(1) for v in vs}
        else:
            w = {v: Fraction(weight_of(v)) for v in vs}
        total = sum(w.values(), Fraction(0))
        if total == 0:
            raise DemandError("all_to_all needs positive total weight")
        q = cls()
        for u in vs:
            for v in vs:
                if u != v:
                    q.add(u, v, w[v] / total)
        return q


class DemandState:
    """Sparse mapping (vertex, commodity) -> signed rational mass."""

    def __init__(self, entries=()):
        self.entries = {}
        for (v, k), a in dict(entries).items():
            a = Fraction(a)
            if a:
                self.entries[(v, k)] = a

    def mass(self, v, k):
        return self.entries.get((v, k), Fraction(0))

    def vector(self, v):
        return {k: a for (u, k), a in self.entries.items() if u == v}

    def load(self, v):
        return sum((abs(a) for (u, _), a in self.entries.items() if u == v),
                   Fraction(0))

    def loads(self):
        out = {}
        for (v, _), a in self.entries.items():
            out[v] = out.get(v, Fraction(0)) + abs(a)
        return out

    def support_vertices(self):
        return frozenset(v for (v, _), a in self.entries.items() if a)

    def commodities(self):
        return frozenset(k for (_, k) in self.entries)

    def commodity_totals(self):
        out = {}
        for (_, k), a in self.entries.items():
            out[k] = out.get(k, Fraction(0)) + a
        return {k: a for k, a in out.items() if a}

    def is_valid(self):
        return not self.commodity_totals()

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        out = dict(self.entries)
        for key, a in other.entries.items():
            out[key] = out.get(key, Fraction(0)) + a
        return DemandState(out)

    def __sub__(self, other):
        out = dict(self.entries)
        for key, a in other.entries.items():
            out[key] = out.get(key, Fraction(0)) - a
        return DemandState(out)

    def scaled(self, factor):
        factor = Fraction(factor)
        return DemandState({k: a * factor for k, a in self.entries.items()})

    def restrict_vertices(self, vs):
        vs = frozenset(vs)
        return DemandState({(v, k): a for (v, k), a in self.entries.items()
                            if v in vs})

    def dem_across(self, side):
        """sum_k |sum_{u in side} P(u, k)| (symmetric for valid states)."""
        side = frozenset(side)
        sums = {}
        for (v, k), a in self.entries.items():
            if v in side:
                sums[k] = sums.get(k, Fraction(0)) + a
        return sum((abs(a) for a in sums.values()), Fraction(0))

    def total_load(self):
        return sum((abs(a) for a in self.entries.values()), Fraction(0))


def from_matrix(q: DemandMatrix) -> DemandState:
    """Demand state equivalent of a demand matrix (commodities = sources)."""
    entries = {}
    for (u, v), a in q.entries.items():
        entries[(u, u)] = entries.get((u, u), Fraction(0)) + a
        entries[(v, u)] = entries.get((v, u), Fraction(0)) - a
    return DemandState(entries)


def dem_across(p: DemandState, side):
    if not p.is_valid():
        raise DemandError("dem_across requires a valid demand state")
    return p.dem_across(side)


def update(p: DemandState, q: DemandMatrix) -> DemandState:
    """The demand-state update P^(up Q).

    Each source u sends the fraction sum_v Q(u,v) / ||P(u)||_1 of every one
    of its masses; receivers get the source's mass mix scaled by Q(v,u).
    """
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
        for k, m in p.vector(u).items():
            share = (m / lu) * a
            out[(v, k)] = out.get((v, k), Fraction(0)) + share
    for u, sent in row.items():
        if sent == 0:
            continue
        lu = loads[u]
        for k, m in p.vector(u).items():
            out[(u, k)] = out.get((u, k), Fraction(0)) - (m / lu) * sent
    return DemandState(out)


def spread_update(p: DemandState, vertices, weight_of=None):
    """Move every vertex's whole load with a scaled all-to-all matrix.

    Each u in `vertices` sends its entire load, distributed over `vertices`
    proportionally to weight_of; afterwards every v holds the weight share
    w(v)/W of the summed vector.  Returns (new state, applied matrix).
    """
    vs = sorted(vertices)
    if weight_of is None:
        w = {v: Fraction(1) for v in vs}
    else:
        w = {v: Fraction(weight_of(v)) for v in vs}
    total_w = sum(w.values(), Fraction(0))
    if total_w == 0:
        raise DemandError("spread_update needs positive total weight")
    loads = p.loads()
    q = DemandMatrix()
    for u in vs:
        lu = loads.get(u, Fraction(0))
        if lu == 0:
            continue
        # Q(u, v) = ||P(u)||_1 * w(v)/W; u keeps exactly the share w(u)/W of
        # its own mass, so every vertex ends with (w(v)/W) * sum P.
        for v in vs:
            if v != u:
                q.add(u, v, lu * w[v] / total_w)
    return update(p, q), q


def respects_exact(g: Graph, p: DemandState, threshold=None):
    """min over cuts with positive demand of cap/dem; (ratio, argmin side).

    Ratio is None (interpreted as +infinity) when every cut demand vanishes.
    The side is the first strict minimizer in Gray order.
    """
    if threshold is None:
        threshold = DEFAULT.brute_threshold
    n = g.vertex_count
    if n > threshold:
        raise SizeError("respects_exact needs n <= %d, got %d" % (threshold, n))
    if not p.is_valid():
        raise DemandError("respects_exact requires a valid demand state")
    vectors = {v: {} for v in g.vertices}
    for (v, k), a in p.entries.items():
        if v in vectors:
            vectors[v][k] = a
    return _gray_min_ratio(g, vectors=[vectors[v] for v in g.vertices])


def leaf_init(p: DemandState, sub: SubdivisionGraph):
    """Split every vertex's demand vector over its incident split nodes.

    Returns {v: DemandState on v's split nodes}.  Each split node x_e gets
    the share c(e)/deg(v) of P(v), so its load is at most c(e) when
    ||P(v)||_1 <= deg(v) (enforced).
    """
    g = sub.base
    out = {}
    for v in g.vertices:
        vec = p.vector(v)
        load = sum((abs(a) for a in vec.values()), Fraction(0))
        deg = g.degree(v)
        if load > deg:
            raise DemandError("leaf_init: load %s exceeds degree %d at vertex %r"
                              % (load, deg, v))
        entries = {}
        if vec:
            for u, c in g.adj[v]:
                x = sub.split(v, u)
                for k, a in vec.items():
                    entries[(x, k)] = entries.get((x, k), Fraction(0)) + \
                        a * Fraction(c, deg)
        out[v] = DemandState(entries)
    return out


def invariant_check(p: DemandState, view, original: DemandState, alpha):
    """The per-cluster active-state invariant.

    (1) support on the cluster's boundary split nodes; (2) per-commodity
    conservation against the original state on the cluster; (3) per-node load
    at most alpha per unit of the split node's edge capacity.
    Returns (ok, violated clause description or None).
    """
    alpha = Fraction(alpha)
    if p.support_vertices() - view.x_boundary:
        bad = sorted(p.support_vertices() - view.x_boundary)
        return False, "support outside boundary split nodes: %r" % (bad,)
    want = original.restrict_vertices(view.cluster).commodity_totals()
    have = p.commodity_totals()
    if want != have:
        return False, "per-commodity conservation violated"
    loads = p.loads()
    for x, load in sorted(loads.items()):
        u, v = view.root.edge_of_split[x]
        cap = view.root.base.cap[(u, v)]
        if load > alpha * cap:
            return False, "load %s at split node %d exceeds alpha*cap = %s" % (
                load, x, alpha * cap)
    return True, None


def parse_demands(text: str) -> DemandState:
    """Quadruple lines: `vertex commodity numerator denominator`."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DemandError("line %d: expected `v k num den`" % lineno)
        try:
            v, k, num, den = (int(x) for x in parts)
        except ValueError as exc:
            raise DemandError("line %d: %s" % (lineno, exc)) from exc
        entries[(v, k)] = entries.get((v, k), Fraction(0)) + Fraction(num, den)
    return DemandState(entries)


def format_demands(p: DemandState) -> str:
    lines = []
    for (v, k) in sorted(p.entries):
        a = p.entries[(v, k)]
        lines.append("%d %d %d %d" % (v, k, a.numerator, a.denominator))
    return "\n".join(lines) + ("\n" if lines else "")
