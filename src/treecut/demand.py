"""Demand states and demand matrices: validity, cut demands, updates.

A demand state holds signed per-vertex, per-commodity masses.  A demand
matrix says how much mass each source sends to each target; it is built
either by `DemandMatrix.spread` (mass spread over a target set in
proportion to weights) or from a stored flow scaled to the load present.
`update` is the one kernel that applies a matrix to a state; moving mass
lets opposite-signed masses cancel, which is what the charging replay
exploits.

`update` and `spread` keep the Fraction API but run on ints: they scale the
masses, amounts and weights by the lcm of their denominators, accumulate
every output numerator over one common denominator, and build one Fraction
per output entry.  The state sums (`loads`, `total_load`,
`commodity_totals`, `dem_across`) add numerators over one lcm the same way.
"""

from fractions import Fraction
from math import lcm

from .graph import _ZERO, Graph, SizeError, SubdivisionGraph, _min_ratio_side
from .config import DEFAULT
from .util import parse_frac


class DemandError(ValueError):
    pass


def _frac(a):
    return a if type(a) is Fraction else Fraction(a)


def _int_sums(terms):
    """(d, {key: n}) where n / d is the sum of num / den over the terms
    (key, num, den) with that key, d is the lcm of the denominators, and
    the keys are in first-seen order."""
    terms = list(terms)
    d = lcm(*(den for _, _, den in terms))
    sums = {}
    for key, num, den in terms:
        sums[key] = sums.get(key, 0) + num * (d // den)
    return d, sums


class DemandMatrix:
    """Sparse nonnegative (source, target) -> amount with zero diagonal."""

    def __init__(self, entries=()):
        self.entries = {}
        for (u, v), a in dict(entries).items():
            a = _frac(a)
            if a < 0:
                raise DemandError("negative demand entry")
            if u == v:
                raise DemandError("diagonal demand entry at %r" % (u,))
            if a:
                self.entries[(u, v)] = self.entries.get((u, v), _ZERO) + a

    def add(self, u, v, a):
        a = _frac(a)
        if a < 0 or u == v:
            raise DemandError("bad demand entry")
        if a:
            self.entries[(u, v)] = self.entries.get((u, v), _ZERO) + a

    def dem_across(self, side):
        side = frozenset(side)
        tot = _ZERO
        for (u, v), a in self.entries.items():
            if (u in side) != (v in side):
                tot += a
        return tot

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
            weights = [1] * len(vs)
        else:
            weights = [_frac(weight_of(v)) for v in vs]
        sources = sorted(mass)
        masses = [_frac(mass[u]) for u in sources]
        # Q(u, v) = (m_u * c) * (w_v * e) / (c * e * W) with c, e the lcms
        # of the mass and weight denominators
        e = lcm(*(w.denominator for w in weights))
        ws = [w.numerator * (e // w.denominator) for w in weights]
        total = sum(ws)
        if total == 0:
            raise DemandError("spread needs positive total target weight")
        c = lcm(*(m.denominator for m in masses))
        den = c * total
        q = cls()
        entries = q.entries
        for u, m in zip(sources, masses):
            mu = m.numerator * (c // m.denominator)
            if not mu:
                continue
            for v, w in zip(vs, ws):
                if v != u and w:
                    a = Fraction(mu * w, den)
                    if a < 0:
                        raise DemandError("bad demand entry")
                    entries[(u, v)] = a
        return q


class DemandState:
    """Sparse mapping (vertex, commodity) -> signed rational mass."""

    def __init__(self, entries=()):
        self.entries = {}
        for (v, k), a in dict(entries).items():
            a = _frac(a)
            if a:
                self.entries[(v, k)] = a

    def mass(self, v, k):
        return self.entries.get((v, k), _ZERO)

    def vector(self, v):
        return {k: a for (u, k), a in self.entries.items() if u == v}

    def load(self, v):
        return sum((abs(a) for (u, _), a in self.entries.items() if u == v),
                   _ZERO)

    def _load_sums(self):
        return _int_sums((v, abs(a.numerator), a.denominator)
                         for (v, _), a in self.entries.items())

    def loads(self):
        d, sums = self._load_sums()
        return {v: Fraction(n, d) for v, n in sums.items()}

    def support_vertices(self):
        return frozenset(v for (v, _), a in self.entries.items() if a)

    def commodity_totals(self):
        d, sums = _int_sums((k, a.numerator, a.denominator)
                            for (_, k), a in self.entries.items())
        return {k: Fraction(n, d) for k, n in sums.items() if n}

    def is_valid(self):
        return not self.commodity_totals()

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        return sum_states((self, other))

    def __sub__(self, other):
        out = dict(self.entries)
        for key, a in other.entries.items():
            out[key] = out.get(key, _ZERO) - a
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
        d, sums = _int_sums((k, a.numerator, a.denominator)
                            for (v, k), a in self.entries.items()
                            if v in side)
        return Fraction(sum(abs(n) for n in sums.values()), d)

    def total_load(self):
        d, sums = self._load_sums()
        return Fraction(sum(sums.values()), d)


def sum_states(states) -> DemandState:
    """The sum of the states, built as one DemandState: the same entries,
    in the same insertion order, as chaining `+` from an empty state.  A key
    is popped as soon as its running sum reaches zero, so it re-enters at
    the end if a later state brings it back."""
    out = {}
    for st in states:
        for key, a in st.entries.items():
            s = out.get(key, _ZERO) + a
            if s:
                out[key] = s
            else:
                del out[key]
    return DemandState(out)


def from_matrix(q: DemandMatrix) -> DemandState:
    """Demand state equivalent of a demand matrix (commodities = sources)."""
    entries = {}
    for (u, v), a in q.entries.items():
        entries[(u, u)] = entries.get((u, u), _ZERO) + a
        entries[(v, u)] = entries.get((v, u), _ZERO) - a
    return DemandState(entries)


def update(p: DemandState, q: DemandMatrix) -> DemandState:
    """The demand-state update P^(up Q).

    Each source u sends the fraction sum_v Q(u,v) / ||P(u)||_1 of every one
    of its masses; receivers get the source's mass mix scaled by Q(v,u).

    With P = M/d and Q = A/e over the lcms d and e of their denominators,
    source u's load is L_u/d, and the mass m of commodity k at u sends
    M(u,k) * A(u,v) / (L_u * e) to v.  Every changed entry is accumulated
    as a numerator over d * e * lcm_u(L_u).
    """
    d = lcm(*(m.denominator for m in p.entries.values()))
    e = lcm(*(a.denominator for a in q.entries.values()))
    vectors = {}
    for (v, k), m in p.entries.items():
        vectors.setdefault(v, []).append(
            (k, m.numerator * (d // m.denominator)))
    sent = {}
    for (u, _), a in q.entries.items():
        sent[u] = sent.get(u, 0) + a.numerator * (e // a.denominator)
    loads = {}
    for u in sent:
        load = sum(abs(m) for _, m in vectors.get(u, ()))
        if load == 0:
            raise DemandError("update source %r has zero load" % (u,))
        loads[u] = load
    big = lcm(*loads.values())
    den = d * e * big
    # source u's masses times d * big / L_u: times A(u,v) they are the
    # numerators (over den) of what u sends to v
    rows = {}
    for u, load in loads.items():
        f = d * (big // load)
        rows[u] = [(k, m * f) for k, m in vectors[u]]
    acc = {}
    for (u, v), a in q.entries.items():
        a = a.numerator * (e // a.denominator)
        for k, m in rows[u]:
            acc[(v, k)] = acc.get((v, k), 0) + m * a
    for u, total in sent.items():
        for k, m in rows[u]:
            acc[(u, k)] = acc.get((u, k), 0) - m * total
    scale = den // d
    out = dict(p.entries)
    for key, n in acc.items():
        m = out.get(key)
        if m is not None:
            n += m.numerator * (d // m.denominator) * scale
        out[key] = Fraction(n, den)
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
    return _min_ratio_side(g, vectors=[vectors[v] for v in g.vertices])


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
        load = sum((abs(a) for a in vec.values()), _ZERO)
        deg = g.degree(v)
        if load > deg:
            raise DemandError("leaf_init: load %s exceeds degree %d at vertex %r"
                              % (load, deg, v))
        entries = {}
        if vec:
            for u, c in g.adj[v]:
                x = sub.split(v, u)
                for k, a in vec.items():
                    entries[(x, k)] = entries.get((x, k), _ZERO) + \
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
        entries[(v, k)] = entries.get((v, k), _ZERO) + amount
    return DemandState(entries)
