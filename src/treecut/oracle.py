"""The balanced-cut-or-expander oracle and its refined five-case variant.

Desk-scale implementation of the oracle contract: an exact (or, above the
brute-force threshold, spectral-sweep) sparsest-cut backend drives a peeling
loop; outcomes carry peel sequences, routing flows, and certificates, and a
self-checker validates every emitted outcome against its own declared
constants.
"""

from fractions import Fraction

from .config import DEFAULT, Config
from .graph import (Graph, Measure, SizeError, cut_capacity, cut_expansion,
                    graph_expansion_exact, min_ratio_cut)
from .flow import route_from_cut
from .util import ceil_frac, frac_str, rlog2


class OracleError(ValueError):
    pass


def _log2n(n):
    return max(Fraction(1), rlog2(max(2, n)))


def _sweep_orders(g: Graph, mu: Measure):
    """Candidate vertex orderings for sweep cuts (spectral + fallbacks)."""
    import numpy as np
    orders = []
    verts = list(g.vertices)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    lap = np.zeros((n, n))
    for u, v, c in g.edges:
        i, j = idx[u], idx[v]
        lap[i, j] -= c
        lap[j, i] -= c
        lap[i, i] += c
        lap[j, j] += c
    m = np.diag([max(float(mu(v)), 1e-9) for v in verts])
    try:
        from scipy.linalg import eigh
    except ImportError:
        # scipy is optional: without it the two spectral orders are skipped
        eigh = None
    if eigh is not None:
        for b in (m, None):
            _, vecs = eigh(lap, b)
            fiedler = vecs[:, 1] if vecs.shape[1] > 1 else vecs[:, 0]
            orders.append([v for _, v in sorted(zip(fiedler, verts),
                                                key=lambda t: (t[0], t[1]))])
    orders.append(sorted(verts, key=lambda v: (g.degree(v), v)))
    orders.append(sorted(verts, key=lambda v: (-mu(v), v)))
    return orders


def _sweep_best(g: Graph, mu: Measure):
    """Best prefix cut over the candidate orderings (exact ratios)."""
    mu_total = mu.of(g.vertices)
    best = None
    best_side = None
    for order in _sweep_orders(g, mu):
        side = set()
        cap = 0
        mu_a = Fraction(0)
        for v in order[:-1]:
            for u, c in g.adj[v]:
                cap += c if u not in side else -c
            side.add(v)
            mu_a += mu(v)
            den = min(mu_a, mu_total - mu_a)
            if den > 0:
                ratio = Fraction(cap) / den
                if best is None or ratio < best:
                    best = ratio
                    best_side = frozenset(side)
    # always consider singletons as well
    for v in g.vertices:
        den = min(mu(v), mu_total - mu(v))
        if den > 0:
            ratio = Fraction(g.degree(v)) / den
            if best is None or ratio < best:
                best = ratio
                best_side = frozenset([v])
    return best, best_side


def sparsest_cut(g: Graph, mu: Measure, cfg: Config = DEFAULT):
    """(ratio, side, exact?) - exact enumeration when small, sweep otherwise.

    Returns (None, None, exact?) when no cut has a positive denominator.
    """
    if g.vertex_count <= cfg.brute_threshold:
        ratio, side = min_ratio_cut(g, mu, cfg.brute_threshold)
        return ratio, side, True
    ratio, side = _sweep_best(g, mu)
    return ratio, side, False


class RouteRecord:
    """A Remark-style routing flow with the constants actually used."""

    def __init__(self, result, congestion_cap, sink_caps, sink_boost,
                 within_declared):
        self.result = result
        self.congestion_cap = Fraction(congestion_cap)
        self.sink_caps = dict(sink_caps)
        self.sink_boost = Fraction(sink_boost)
        self.within_declared = bool(within_declared)

    @property
    def feasible(self):
        return self.result.feasible


def _routed(g: Graph, d, mu: Measure, rate, cfg: Config, cut_edges=None):
    """route_from_cut with sink caps ceil(rate * mu(v)), escalating the
    congestion cap (and, as a last resort, the sink caps) until feasible.

    Records whether the declared config constants sufficed.
    """
    d = frozenset(d)
    base_caps = {v: Fraction(ceil_frac(Fraction(rate) * mu(v)))
                 for v in d if mu(v) > 0}
    cap = cfg.oracle_congestion_cap
    boost = Fraction(1)
    first = True
    while True:
        caps = {v: c * boost for v, c in base_caps.items()}
        res = route_from_cut(g, d, caps, cap, cut_edges=cut_edges)
        if res.feasible:
            return RouteRecord(res, cap, caps, boost, within_declared=first)
        first = False
        if cap < cfg.oracle_congestion_limit:
            cap = cap * 2
            continue
        if boost < 64:
            boost = boost * 2
            continue
        # guarantee feasibility: let every source vertex absorb its own units
        caps = {v: c * boost for v, c in base_caps.items()}
        for v, amt in (res.sources or {}).items():
            caps[v] = caps.get(v, Fraction(0)) + Fraction(amt)
        res = route_from_cut(g, d, caps, cap, cut_edges=cut_edges)
        return RouteRecord(res, cap, caps, boost, within_declared=False)


class PeelStep:
    def __init__(self, residual, side, ratio, exact, flow_in, flow_out):
        self.residual = frozenset(residual)    # A_t
        self.side = frozenset(side)            # S_t
        self.ratio = ratio                     # measured sparsity in G[A_t]
        self.exact = exact                     # backend was exact
        self.flow_in = flow_in                 # RouteRecord into S_t
        self.flow_out = flow_out               # RouteRecord into A_t \ S_t

    @property
    def rest(self):
        return self.residual - self.side


class ExpanderCertificate:
    """Either an exact expansion value or an honest heuristic report."""

    def __init__(self, value, verified, heuristic_ratio=None):
        self.value = value                  # exact expansion (or None)
        self.verified = verified            # "exact" | "heuristic"
        self.heuristic_ratio = heuristic_ratio


class OracleOutcome:
    TAGS = ("Expander", "BalancedCut", "UnbalancedExpander")

    def __init__(self, tag, g, phi, mu, cfg, steps, residual, certificate=None,
                 degenerate=False):
        self.tag = tag
        self.graph = g
        self.phi = Fraction(phi)
        self.mu = mu
        self.cfg = cfg
        self.steps = list(steps)
        self.residual = frozenset(residual)     # A
        self.certificate = certificate          # for Expander cases
        self.degenerate = degenerate
        self.logn = _log2n(g.vertex_count)
        self.threshold = cfg.oracle_sparsity_c * self.phi * self.logn

    @property
    def peeled(self):
        out = set()
        for s in self.steps:
            out |= s.side
        return frozenset(out)

    @property
    def cut_side(self):
        return self.residual


def cut_or_expander(g: Graph, phi, mu: Measure, cfg: Config = DEFAULT):
    """Peel sparse cuts until balance or none remain, then classify.

    Case Expander: nothing peeled (trivially when no cut has a positive
    denominator).  Case UnbalancedExpander: peeled mass at most
    mu(V)/log2(n) and the residual certified expanding.  Case BalancedCut:
    everything else; both sides carry at least mu(V)/(4 log2 n).
    """
    phi = Fraction(phi)
    if phi <= 0:
        raise OracleError("phi must be positive")
    logn = _log2n(g.vertex_count)
    threshold = cfg.oracle_sparsity_c * phi * logn
    sink_rate = cfg.oracle_sink_scale * phi * logn
    mu_total = mu.of(g.vertices)
    residual = set(g.vertices)
    cum = Fraction(0)
    steps = []
    ended_no_cut = True
    while True:
        if cum > mu_total / 2:
            ended_no_cut = False
            break
        g_a = g.induced(residual)
        mu_a = mu.restrict(residual)
        ratio, side, exact = sparsest_cut(g_a, mu_a, cfg)
        if ratio is None or ratio >= threshold:
            break
        other = frozenset(residual) - side
        # peel the smaller-mu side; ties by fewer vertices, then lexicographic
        def key(s):
            return (mu.of(s), len(s), tuple(sorted(s)))
        s_t = side if key(side) <= key(other) else other
        rest = frozenset(residual) - s_t
        flow_in = _routed(g_a, s_t, mu, sink_rate, cfg)
        flow_out = _routed(g_a, rest, mu, sink_rate, cfg) if rest else None
        steps.append(PeelStep(frozenset(residual), s_t,
                              cut_expansion(g_a, s_t, mu_a), exact,
                              flow_in, flow_out))
        residual -= s_t
        cum += mu.of(s_t)
    residual = frozenset(residual)
    peeled_mu = cum
    if not steps:
        cert = _expander_certificate(g, mu, phi, threshold, cfg)
        return OracleOutcome("Expander", g, phi, mu, cfg, steps, residual,
                             certificate=cert)
    if ended_no_cut and 0 < peeled_mu <= mu_total / logn and \
            mu.of(residual) > 0:
        cert = _expander_certificate(g.induced(residual), mu.restrict(residual),
                                     phi, threshold, cfg)
        return OracleOutcome("UnbalancedExpander", g, phi, mu, cfg, steps,
                             residual, certificate=cert)
    return OracleOutcome("BalancedCut", g, phi, mu, cfg, steps, residual,
                         degenerate=(mu.of(residual) == 0))


def _expander_certificate(g: Graph, mu: Measure, phi, threshold, cfg: Config):
    if g.vertex_count <= cfg.brute_threshold:
        val = graph_expansion_exact(g, mu, cfg.brute_threshold)
        return ExpanderCertificate(val, "exact")
    ratio, _, _ = sparsest_cut(g, mu, cfg)
    return ExpanderCertificate(None, "heuristic", heuristic_ratio=ratio)


class RefinedOutcome:
    TAGS = ("1", "2a", "2b", "2c", "3a", "3b")

    def __init__(self, tag, base: OracleOutcome, nu: Measure, cut_a=None,
                 cut_a1=None, cut_a2=None, flow_steps=(), extra_flow=None,
                 truncated_at=None):
        self.tag = tag
        self.base = base
        self.nu = nu
        self.cut_a = cut_a            # A (cases 2a/2b/3a/3b)
        self.cut_a1 = cut_a1          # A1 (case 2c)
        self.cut_a2 = cut_a2          # A2 (case 2c)
        self.flow_steps = list(flow_steps)   # peel steps whose in-side flows apply
        self.extra_flow = extra_flow  # RouteRecord into an expander side
        self.truncated_at = truncated_at     # T0 for 2b/2c


def refined_cut_or_expander(g: Graph, phi, mu: Measure, nu: Measure,
                            cfg: Config = DEFAULT):
    """Five-case refinement of the oracle, keyed on the nu-mass balance."""
    base = cut_or_expander(g, phi, mu, cfg)
    nu_total = nu.of(g.vertices)
    verts = g.vertex_set()
    logn = base.logn
    sink_rate_exp = cfg.oracle_sink_scale * Fraction(phi) * logn
    if base.tag == "Expander":
        return RefinedOutcome("1", base, nu)
    if base.tag == "UnbalancedExpander":
        a = base.residual
        extra = _routed(g, a, mu, sink_rate_exp, cfg)
        if nu.of(verts - a) >= nu_total / 2:
            return RefinedOutcome("3a", base, nu, cut_a=a,
                                  flow_steps=base.steps, extra_flow=extra)
        return RefinedOutcome("3b", base, nu, cut_a=a,
                              flow_steps=base.steps, extra_flow=extra)
    # BalancedCut
    abar = base.peeled
    if nu.of(abar) <= nu_total / 4:
        return RefinedOutcome("2a", base, nu, cut_a=base.residual,
                              flow_steps=base.steps)
    cum = Fraction(0)
    t0 = None
    for i, step in enumerate(base.steps):
        cum += nu.of(step.side)
        if cum > nu_total / 4:
            t0 = i
            break
    if t0 is None:
        raise OracleError("internal: truncation index not found")
    if cum <= nu_total / 2:
        kept = base.steps[:t0 + 1]
        peeled = frozenset().union(*(s.side for s in kept))
        return RefinedOutcome("2b", base, nu, cut_a=verts - peeled,
                              flow_steps=kept, truncated_at=t0)
    a1 = verts - (frozenset().union(*(s.side for s in base.steps[:t0]))
                  if t0 > 0 else frozenset())
    a2 = a1 - base.steps[t0].side
    return RefinedOutcome("2c", base, nu, cut_a1=a1, cut_a2=a2,
                          flow_steps=base.steps[:t0],
                          extra_flow=base.steps[t0].flow_out,
                          truncated_at=t0)


# ---------------------------------------------------------------------------
# Self-checkers (part of the public API): every outcome must pass.
# ---------------------------------------------------------------------------

class CheckReport:
    def __init__(self):
        self.failures = []
        self.notes = []

    @property
    def ok(self):
        return not self.failures

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)


def _check_route(rep: CheckReport, rec: RouteRecord, g_sub: Graph, d, label):
    if rec is None:
        return
    if not rec.feasible:
        rep.fail("%s: routing flow infeasible" % label)
        return
    sol = rec.result.flow
    if not sol.check_conservation():
        rep.fail("%s: flow does not conserve" % label)
    # sources: each cut edge injects its capacity at its endpoint inside d
    want = {}
    for u, v, c in g_sub.edges:
        if (u in d) != (v in d):
            inside = u if u in d else v
            want[inside] = want.get(inside, 0) + c
    have = {v: a for v, a in sol.source_out.items()}
    if {k: Fraction(v) for k, v in want.items()} != have:
        rep.fail("%s: source amounts do not match cut-edge capacities" % label)
    if sol.congestion() > rec.congestion_cap:
        rep.fail("%s: congestion %s exceeds cap %s"
                 % (label, sol.congestion(), rec.congestion_cap))
    for v, got in sol.sink_in.items():
        if got > rec.sink_caps.get(v, Fraction(0)):
            rep.fail("%s: sink %r over its cap" % (label, v))
    if not rec.within_declared:
        rep.note("%s: needed escalation beyond the declared constants" % label)


def check_outcome(outcome: OracleOutcome) -> CheckReport:
    rep = CheckReport()
    g = outcome.graph
    mu = outcome.mu
    cfg = outcome.cfg
    mu_total = mu.of(g.vertices)
    # peel telescoping
    residual = g.vertex_set()
    for i, step in enumerate(outcome.steps):
        if step.residual != residual:
            rep.fail("step %d: residual mismatch" % i)
        if not step.side or not step.side <= residual:
            rep.fail("step %d: peeled side not inside the residual" % i)
        g_a = g.induced(residual)
        mu_a = mu.restrict(residual)
        ratio = cut_expansion(g_a, step.side, mu_a) \
            if step.side < residual else None
        if ratio is None:
            rep.fail("step %d: peeled cut has undefined expansion" % i)
        else:
            if ratio != step.ratio:
                rep.fail("step %d: recorded sparsity %s != recomputed %s"
                         % (i, step.ratio, ratio))
            if ratio >= outcome.threshold:
                rep.fail("step %d: sparsity %s not below threshold %s"
                         % (i, ratio, outcome.threshold))
        if mu.of(step.side) > mu.of(residual) / 2:
            rep.fail("step %d: peeled the larger-mu side" % i)
        _check_route(rep, step.flow_in, g_a, step.side, "step %d in-flow" % i)
        if step.flow_out is not None:
            _check_route(rep, step.flow_out, g_a, step.rest,
                         "step %d out-flow" % i)
        residual = residual - step.side
    if residual != outcome.residual:
        rep.fail("residual after peeling does not match the outcome")
    peeled_mu = mu.of(outcome.peeled)
    if outcome.tag == "Expander":
        if outcome.steps:
            rep.fail("Expander outcome with a nonempty peel sequence")
        _check_cert(rep, outcome.certificate, g, mu, outcome.phi, cfg,
                    "expander certificate")
    elif outcome.tag == "UnbalancedExpander":
        if not (0 < peeled_mu <= mu_total / outcome.logn):
            rep.fail("unbalanced case: peeled mass %s outside (0, mu/log n]"
                     % peeled_mu)
        _check_cert(rep, outcome.certificate, g.induced(outcome.residual),
                    mu.restrict(outcome.residual), outcome.phi, cfg,
                    "residual expander certificate")
    elif outcome.tag == "BalancedCut":
        if outcome.degenerate:
            if mu.of(outcome.residual) != 0:
                rep.fail("degenerate flag set but the residual has mass")
        else:
            lo = mu_total / (4 * outcome.logn)
            if min(peeled_mu, mu.of(outcome.residual)) < lo:
                rep.fail("balanced case: a side is below mu(V)/(4 log n)")
            ratio = cut_expansion(g, outcome.residual, mu)
            if ratio is not None and ratio > 3 * outcome.threshold:
                rep.fail("balanced cut sparsity %s exceeds 3*threshold %s"
                         % (ratio, 3 * outcome.threshold))
    else:
        rep.fail("unknown tag %r" % (outcome.tag,))
    return rep


def _check_cert(rep, cert, g, mu, phi, cfg, label):
    if cert is None:
        rep.fail("%s missing" % label)
        return
    if cert.verified == "exact":
        val = graph_expansion_exact(g, mu, cfg.brute_threshold) \
            if g.vertex_count <= cfg.brute_threshold else None
        if g.vertex_count > cfg.brute_threshold:
            rep.fail("%s claims exact above the brute threshold" % label)
        elif val != cert.value:
            rep.fail("%s: recorded value %s != recomputed %s"
                     % (label, cert.value, val))
        elif val is not None and val < Fraction(phi):
            rep.fail("%s: expansion %s below phi %s" % (label, val, phi))
    else:
        ratio, _, _ = sparsest_cut(g, mu, cfg)
        if ratio is not None and ratio < Fraction(phi):
            rep.fail("%s: heuristic found a cut below phi" % label)
        rep.note("%s: heuristic only (instance above brute threshold)" % label)


def check_refined(outcome: RefinedOutcome) -> CheckReport:
    rep = check_outcome(outcome.base)
    g = outcome.base.graph
    nu = outcome.nu
    nu_total = nu.of(g.vertices)
    verts = g.vertex_set()
    tag = outcome.tag
    if tag == "1":
        if outcome.base.tag != "Expander":
            rep.fail("case 1 requires an Expander base outcome")
    elif tag in ("2a", "2b"):
        a = outcome.cut_a
        nbar = nu.of(verts - a)
        if tag == "2a" and nbar > nu_total / 4:
            rep.fail("2a: nu of the peeled side exceeds nu(V)/4")
        if tag == "2b" and not (nu_total / 4 < nbar <= nu_total / 2):
            rep.fail("2b: nu of the peeled side outside (1/4, 1/2]")
        peeled = frozenset().union(*(s.side for s in outcome.flow_steps)) \
            if outcome.flow_steps else frozenset()
        if peeled != verts - a:
            rep.fail("%s: flow steps do not cover the cut side" % tag)
    elif tag == "2c":
        a1, a2 = outcome.cut_a1, outcome.cut_a2
        mu = outcome.base.mu
        if mu.of(a2) < mu.of(verts) / 4:
            rep.fail("2c: mu(A2) below mu(V)/4")
        if nu.of(a1 - a2) < nu_total / 4:
            rep.fail("2c: nu(A1\\A2) below nu(V)/4")
        if nu.of(verts - a1) > nu_total / 4:
            rep.fail("2c: nu(V\\A1) above nu(V)/4")
        if outcome.extra_flow is None:
            rep.fail("2c: missing the residual-side flow at the truncation step")
    elif tag in ("3a", "3b"):
        a = outcome.cut_a
        nbar = nu.of(verts - a)
        if tag == "3a" and nbar < nu_total / 2:
            rep.fail("3a: nu(V\\A) below nu(V)/2")
        if tag == "3b" and nbar > nu_total / 2:
            rep.fail("3b: nu(V\\A) above nu(V)/2")
        if outcome.extra_flow is None:
            rep.fail("%s: missing the expander-side flow" % tag)
        else:
            _check_route(rep, outcome.extra_flow, g, a, "%s expander flow" % tag)
    else:
        rep.fail("unknown refined tag %r" % (tag,))
    return rep
