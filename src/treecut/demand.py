"""Demand states and demand matrices: validity, cut demands, updates.

A demand state holds signed per-vertex, per-commodity masses.  A demand
matrix says how much mass each source sends to each target; it is built
either by `DemandMatrix.spread` (mass spread over a target set in
proportion to weights) or by `_flow_matrix`, which scales a stored flow to
the load present.  A stored flow holds its rows in the int form of
`_unit_rows`, made once where the build records the flow.
`update` is the one kernel that applies a matrix to a state; moving mass
lets opposite-signed masses cancel, which is what the charging replay
exploits.

Both classes hold their entries as ints over one denominator: `den` is the
lcm of the entries' reduced denominators, and `nums` maps each key to its
nonzero numerator over `den`, in insertion order, so gcd(den, *nums) is 1.
Every kernel below adds and scales those ints over a common denominator
and reduces its result by one gcd.  Loads, cut demands and the total load
are read as int numerators over `den` (`load_nums`, `dem_num`,
`total_num`), which the replay compares by cross-multiplication;
`entries`, `loads`, `dem_across` and `total_load` are views that build
Fractions from them afresh on every read.
"""

from fractions import Fraction
from math import gcd, lcm

from .graph import (BRUTE_THRESHOLD, _ZERO, Graph, SizeError,
                    SubdivisionGraph, _min_ratio_side)
from .util import data_lines, parse_frac


class DemandError(ValueError):
    pass


def _frac(a):
    """a as an exact rational: Fractions and ints as they are."""
    return a if type(a) in (Fraction, int) else Fraction(a)


class _IntEntries:
    """Entries held as nums[key] / den: den is the lcm of the entries'
    reduced denominators and no numerator is zero."""

    def _set_entries(self, fracs):
        """Hold the nonzero Fractions of fracs, in their order."""
        den = lcm(*(a.denominator for a in fracs.values()))
        self.den = den
        self.nums = {key: a.numerator * (den // a.denominator)
                     for key, a in fracs.items() if a}

    @classmethod
    def _reduced(cls, den, nums):
        """nums / den, nums holding no zero, reduced by their common gcd."""
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {key: n // g for key, n in nums.items()}
        out = cls.__new__(cls)
        out.den, out.nums = den, nums
        return out

    @property
    def entries(self):
        """{key: Fraction}, built afresh on every read."""
        den = self.den
        return {key: Fraction(n, den) for key, n in self.nums.items()}


class DemandMatrix(_IntEntries):
    """Sparse nonnegative (source, target) -> amount with zero diagonal."""

    def __init__(self, entries=()):
        fracs = {}
        for (u, v), a in dict(entries).items():
            a = _frac(a)
            if a < 0:
                raise DemandError("negative demand entry")
            if u == v:
                raise DemandError("diagonal demand entry at %r" % (u,))
            fracs[(u, v)] = a
        self._set_entries(fracs)

    def dem_num(self, side):
        """dem_across(side) as a numerator over den."""
        side = frozenset(side)
        return sum(a for (u, v), a in self.nums.items()
                   if (u in side) != (v in side))

    def dem_across(self, side):
        return Fraction(self.dem_num(side), self.den)

    @classmethod
    def spread(cls, mass, targets, weight_of, den=1):
        """Q(u, v) = (mass[u] / den) * w(v) / W for every u in mass and
        every target v != u, where w = weight_of and W is the total weight
        of the targets.

        With mass = the load numerators (over den) of the sources among the
        targets, `update` leaves every target holding the share w(v)/W of
        the summed vector; with unit masses it is the all-to-all demand of
        the target set.
        """
        vs = sorted(targets)
        weights = [_frac(weight_of(v)) for v in vs]
        sources = sorted(mass)
        masses = [_frac(mass[u]) for u in sources]
        # Q(u, v) = (m_u * c) * (w_v * e) / (den * c * e * W) with c, e the
        # lcms of the mass and weight denominators
        e = lcm(*(w.denominator for w in weights))
        ws = [w.numerator * (e // w.denominator) for w in weights]
        total = sum(ws)
        if total == 0:
            raise DemandError("spread needs positive total target weight")
        if total < 0:
            # keep the denominator c * W positive
            ws, total = [-w for w in ws], -total
        c = lcm(*(m.denominator for m in masses))
        nums = {}
        for u, m in zip(sources, masses):
            mu = m.numerator * (c // m.denominator)
            if not mu:
                continue
            for v, w in zip(vs, ws):
                if v != u and w:
                    if mu * w < 0:
                        raise DemandError("bad demand entry")
                    nums[(u, v)] = mu * w
        return cls._reduced(den * c * total, nums)


class DemandState(_IntEntries):
    """Sparse mapping (vertex, commodity) -> signed rational mass."""

    def __init__(self, entries=()):
        self._set_entries({key: _frac(a) for key, a in dict(entries).items()})

    def _commodity_nums(self, side=None):
        """{commodity: sum of its numerators} over the entries at the
        vertices in side (all when None), in first-seen order."""
        sums = {}
        for (v, k), n in self.nums.items():
            if side is None or v in side:
                sums[k] = sums.get(k, 0) + n
        return sums

    def _rows(self):
        """{vertex: [(commodity, numerator)]}, in insertion order."""
        rows = {}
        for (v, k), n in self.nums.items():
            rows.setdefault(v, []).append((k, n))
        return rows

    def load_nums(self):
        """{vertex: numerator of its load over den}, in first-seen order."""
        sums = {}
        for (v, _), n in self.nums.items():
            sums[v] = sums.get(v, 0) + abs(n)
        return sums

    def loads(self):
        den = self.den
        return {v: Fraction(n, den) for v, n in self.load_nums().items()}

    def support_vertices(self):
        return frozenset(v for v, _ in self.nums)

    def is_valid(self):
        return not any(self._commodity_nums().values())

    def is_zero(self):
        return not self.nums

    def __add__(self, other):
        return sum_states((self, other))

    def __sub__(self, other):
        d = lcm(self.den, other.den)
        f, g = d // self.den, d // other.den
        out = {key: n * f for key, n in self.nums.items()}
        for key, n in other.nums.items():
            out[key] = out.get(key, 0) - n * g
        return DemandState._reduced(d, {key: n for key, n in out.items()
                                        if n})

    def scaled(self, factor):
        factor = Fraction(factor)
        a = factor.numerator
        return DemandState._reduced(
            self.den * factor.denominator,
            {key: n * a for key, n in self.nums.items()} if a else {})

    def dem_num(self, side):
        """dem_across(side) as a numerator over den."""
        return sum(map(abs, self._commodity_nums(frozenset(side)).values()))

    def dem_across(self, side):
        """sum_k |sum_{u in side} P(u, k)| (symmetric for valid states)."""
        return Fraction(self.dem_num(side), self.den)

    def total_num(self):
        """total_load() as a numerator over den."""
        return sum(map(abs, self.nums.values()))

    def total_load(self):
        return Fraction(self.total_num(), self.den)


def _unit_rows(rows, unit):
    """(e, {x: [(sink, numerator)]}): the flow out of each source x per
    unit of unit[x], summed per sink other than x in first-seen order, as
    nonzero numerators over one denominator e.  rows[x] lists the
    (sink, amount) of the flow that carries unit[x] out of x."""
    per_unit = {}
    for x, row in rows.items():
        acc = {}
        for sink, amt in row:
            if sink != x and amt:
                acc[sink] = acc.get(sink, _ZERO) + Fraction(amt) / unit[x]
        per_unit[x] = [(sink, a) for sink, a in acc.items() if a]
    e = lcm(*(a.denominator for row in per_unit.values() for _, a in row))
    return e, {x: [(sink, a.numerator * (e // a.denominator))
                   for sink, a in row] for x, row in per_unit.items()}


def _flow_matrix(loads, den, sources, flow):
    """Scale a stored flow (a SeparatorFlow or a refinement BinaryNode) to
    the load present: each source x with load loads[x] / den sends its
    load times the per-unit share of flow.unit_rows to each sink, summed
    per (source, sink) pair."""
    e, per_unit = flow.unit_rows
    nums = {}
    for x in sources:
        load = loads.get(x)
        if load:
            for sink, a in per_unit[x]:
                nums[(x, sink)] = load * a
    return DemandMatrix._reduced(den * e, nums)


def sum_states(states) -> DemandState:
    """The sum of the states, built as one DemandState: the same entries,
    in the same insertion order, as chaining `+` from an empty state.  A key
    is popped as soon as its running sum reaches zero, so it re-enters at
    the end if a later state brings it back."""
    states = list(states)
    d = lcm(*(st.den for st in states))
    out = {}
    for st in states:
        f = d // st.den
        for key, n in st.nums.items():
            s = out.get(key, 0) + n * f
            if s:
                out[key] = s
            else:
                del out[key]
    return DemandState._reduced(d, out)


def from_matrix(q: DemandMatrix) -> DemandState:
    """Demand state equivalent of a demand matrix (commodities = sources)."""
    acc = {}
    for (u, v), a in q.nums.items():
        acc[(u, u)] = acc.get((u, u), 0) + a
        acc[(v, u)] = acc.get((v, u), 0) - a
    return DemandState._reduced(q.den, {key: n for key, n in acc.items()
                                        if n})


def update(p: DemandState, q: DemandMatrix) -> DemandState:
    """The demand-state update P^(up Q).

    Each source u sends the fraction sum_v Q(u,v) / ||P(u)||_1 of every one
    of its masses; receivers get the source's mass mix scaled by Q(v,u).

    With P = M/d and Q = A/e, source u's load is L_u/d, and the mass M(u,k)
    of commodity k at u sends M(u,k) * A(u,v) / (L_u * e) to v.  Every
    entry is accumulated as a numerator over d * e * lcm_u(L_u).
    """
    d, e = p.den, q.den
    vectors = p._rows()
    sent = {}
    for (u, _), a in q.nums.items():
        sent[u] = sent.get(u, 0) + a
    loads = {}
    for u in sent:
        load = sum(abs(m) for _, m in vectors.get(u, ()))
        if load == 0:
            raise DemandError("update source %r has zero load" % (u,))
        loads[u] = load
    big = lcm(*loads.values())
    # source u's masses times d * big / L_u: times A(u,v) they are the
    # numerators (over d * e * big) of what u sends to v
    rows = {}
    for u, load in loads.items():
        f = d * (big // load)
        rows[u] = [(k, m * f) for k, m in vectors[u]]
    scale = e * big
    out = {key: m * scale for key, m in p.nums.items()}
    for (u, v), a in q.nums.items():
        for k, m in rows[u]:
            out[(v, k)] = out.get((v, k), 0) + m * a
    for u, total in sent.items():
        for k, m in rows[u]:
            out[(u, k)] -= m * total
    return DemandState._reduced(d * scale, {key: n for key, n in out.items()
                                            if n})


def respects_exact(g: Graph, p: DemandState, threshold=BRUTE_THRESHOLD):
    """min over cuts with positive demand of cap/dem; (ratio, argmin side).

    Ratio is None (interpreted as +infinity) when every cut demand vanishes.
    The side is the first strict minimizer in Gray order.
    """
    n = g.vertex_count
    if n > threshold:
        raise SizeError("respects_exact needs n <= %d, got %d" % (threshold, n))
    if not p.is_valid():
        raise DemandError("respects_exact requires a valid demand state")
    vectors = {v: {} for v in g.vertices}
    for (v, k), a in p.nums.items():
        if v in vectors:
            vectors[v][k] = a
    return _min_ratio_side(g, vectors=[vectors[v] for v in g.vertices],
                           scale=p.den)


def leaf_init(p: DemandState, sub: SubdivisionGraph):
    """Split every vertex's demand vector over its incident split nodes.

    Returns {v: DemandState on v's split nodes}.  Each split node x_e gets
    the share c(e)/deg(v) of P(v), so its load is at most c(e) when
    ||P(v)||_1 <= deg(v) (enforced).
    """
    g = sub.base
    den = p.den
    vectors = p._rows()
    out = {}
    for v in g.vertices:
        vec = vectors.get(v)
        if not vec:
            out[v] = DemandState()
            continue
        load = sum(abs(m) for _, m in vec)
        deg = g.degree(v)
        if load > deg * den:
            raise DemandError("leaf_init: load %s exceeds degree %d at vertex %r"
                              % (Fraction(load, den), deg, v))
        nums = {}
        for u, c in g.adj[v]:
            x = sub.split(v, u)
            for k, m in vec:
                nums[(x, k)] = m * c
        out[v] = DemandState._reduced(den * deg, nums)
    return out


def invariant_check(p: DemandState, view, original: DemandState, alpha):
    """The per-cluster active-state invariant.

    (1) support on the cluster's boundary split nodes; (2) per-commodity
    conservation against the original state on the cluster; (3) per-node load
    at most alpha per unit of the split node's edge capacity.
    Returns (ok, violated clause description or None).
    """
    alpha = _frac(alpha)
    if p.support_vertices() - view.x_boundary:
        bad = sorted(p.support_vertices() - view.x_boundary)
        return False, "support outside boundary split nodes: %r" % (bad,)
    # both sides' commodity totals, compared over each other's denominator
    want = {k: n for k, n in original._commodity_nums(view.cluster).items()
            if n}
    have = {k: n for k, n in p._commodity_nums().items() if n}
    if want.keys() != have.keys() or any(
            n * p.den != have[k] * original.den for k, n in want.items()):
        return False, "per-commodity conservation violated"
    an, ad, den = alpha.numerator, alpha.denominator, p.den
    for x, load in sorted(p.load_nums().items()):
        cap = view.root.split_cap[x]
        if load * ad > an * cap * den:
            return False, "load %s at split node %d exceeds alpha*cap = %s" % (
                Fraction(load, den), x, alpha * cap)
    return True, None


def parse_demands(text: str) -> DemandState:
    """Quadruple lines: `vertex commodity numerator denominator`."""
    entries = {}
    for lineno, line in data_lines(text.splitlines()):
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
