"""Demand states and demand matrices: validity, cut demands, updates.

A demand state holds signed per-vertex, per-commodity masses.  A demand
matrix says how much mass each source sends to each target; it is built
either by `DemandMatrix.spread` (mass spread over a target set in
proportion to weights) or from a stored flow scaled to the load present.
`update` is the one kernel that applies a matrix to a state; moving mass
lets opposite-signed masses cancel, which is what the charging replay
exploits.
"""

from fractions import Fraction

from .graph import Graph, SizeError, SubdivisionGraph, _gray_min_ratio
from .config import DEFAULT
from .util import parse_frac


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
    def spread(cls, mass, targets, weight_of=None):
        """Q(u, v) = mass[u] * w(v) / W for every u in mass and every target
        v != u, where W is the total weight of the targets (1 each when
        weight_of is None).

        With mass = the loads of the sources among the targets, `update`
        leaves every target holding the share w(v)/W of the summed vector;
        with unit masses it is the all-to-all demand of the target set.
        """
        vs = sorted(targets)
        if weight_of is None:
            w = {v: Fraction(1) for v in vs}
        else:
            w = {v: Fraction(weight_of(v)) for v in vs}
        total = sum(w.values(), Fraction(0))
        if total == 0:
            raise DemandError("spread needs positive total target weight")
        q = cls()
        for u in sorted(mass):
            m = mass[u]
            for v in vs:
                if v != u:
                    q.add(u, v, m * w[v] / total)
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
    zero = Fraction(0)
    vectors = {}
    for (v, k), m in p.entries.items():
        vectors.setdefault(v, []).append((k, m))
    sent = {}
    for (u, _), a in q.entries.items():
        sent[u] = sent.get(u, zero) + a
    # each source's masses as shares of its load, m / ||P(u)||_1
    shares = {}
    for u in sent:
        vec = vectors.get(u, ())
        load = sum((abs(m) for _, m in vec), zero)
        if load == 0:
            raise DemandError("update source %r has zero load" % (u,))
        shares[u] = [(k, m / load) for k, m in vec]
    out = dict(p.entries)
    for (u, v), a in q.entries.items():
        for k, share in shares[u]:
            out[(v, k)] = out.get((v, k), zero) + share * a
    for u, total in sent.items():
        for k, share in shares[u]:
            out[(u, k)] = out.get((u, k), zero) - share * total
    return DemandState(out)


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
            if den < 0:
                num, den = -num, -den
            amount = parse_frac("%d/%d" % (num, den))
        except ValueError as exc:
            raise DemandError("line %d: %s" % (lineno, exc)) from exc
        entries[(v, k)] = entries.get((v, k), Fraction(0)) + amount
    return DemandState(entries)
