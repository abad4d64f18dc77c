"""The balanced-cut-or-expander oracle and its refined five-case variant.

Desk-scale implementation of the oracle contract: an exact sparsest-cut
backend (above the brute-force threshold, a sweep over the prefixes of two
Fiedler orderings) drives a peeling loop; outcomes carry peel sequences and
expander certificates, and a self-checker validates every emitted outcome
against its own declared constants.  The oracle routes no flow: every flow
the build keeps is routed by the step that uses it (merge and refine).
Measures hold int weights: every mass comparison is an int one (2 * cum >
mu_total, never mu_total / 2), and each ratio is one exact Fraction.

Within one tree build the sweep solves each distinct eigenproblem once: the
shrink loop of a merge phase sweeps the same subdivision graph again with
new masses, and clusters of one shape repeat one Laplacian.  A solved order
is kept for the rest of the build under a key of the positional problem it
was solved from, so equal keys give the order a new solve would give and
the trees are the same as without the memo.  Calls outside a build solve
every time, and nothing is kept from one build to the next.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate

from .graph import (BRUTE_THRESHOLD, Graph, Measure, cut_expansion,
                    min_ratio_cut)
from .util import rlog2


# The oracle peels while the sparsest-cut ratio is below
# ORACLE_SPARSITY_C * phi * log2(n).
ORACLE_SPARSITY_C = Fraction(1)


class OracleError(ValueError):
    pass


def _log2n(n):
    return max(Fraction(1), rlog2(max(2, n)))


# The sweep orders solved so far in the running build, keyed on their
# positional problems; None outside a build (see _fiedler_memo).
_FIEDLER = ContextVar("treecut_fiedler", default=None)


@contextmanager
def _fiedler_memo():
    """Solve each distinct eigenproblem once inside the block: the sweep
    keeps every order it solves until the block ends.  Equal keys mean
    equal problems, so a kept order is the one a new solve would give."""
    token = _FIEDLER.set({})
    try:
        yield
    finally:
        _FIEDLER.reset(token)


# The sweep's orders are basis-free: each sorts by the projection of the
# centred vertex positions onto the whole eigenspace of lambda_2, so no
# order rests on which basis of a repeated eigenvalue eigh returns.  The
# eigenvalues within EIG_RTOL of lambda_2 (relative to lambda_2, but at
# least EIG_FLOOR times a bound on the largest eigenvalue, which keeps
# numerical zeros together) count as lambda_2; the projected values are
# scaled by their largest magnitude and rounded to ORDER_DIGITS digits, so
# values that differ only by rounding error tie, and ties go by vertex.
EIG_RTOL = 1e-6
EIG_FLOOR = 1e-10
ORDER_DIGITS = 9


def _sweep_orders(g: Graph, mu: Measure):
    """The two vertex orderings the sweep cuts, from mu's int masses.

    The first is the mu-weighted order, the second the plain one.  The mu
    order solves on the massed vertices alone: the massless vertices of
    massed components are eliminated by a Schur complement (Kron reduction)
    of the Laplacian, the reduced Laplacian S gives the standard problem
    D^-1/2 S D^-1/2 with D the masses, and the eliminated vertices take the
    harmonic extension of the massed values.  The vertices of massless
    components follow every massed component, in vertex order; no prefix
    that separates mass moves.  The plain order solves the n x n Laplacian.
    eigh starts with the four smallest eigenpairs and widens while
    lambda_2's group reaches the last one.

    Inside a build each order is looked up by the positional problem: the
    vertex and edge counts and the positional edges (i, j) as int64, then
    the capacities as float64 and, for the mu order, the exact int masses.
    mu needs at least 2 massed vertices in g.
    """
    import numpy as np
    from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    ws = [mu(v) for v in verts]
    n = len(verts)
    ends = np.array([idx[x] for u, v, _ in g.edges for x in (u, v)],
                    np.int64)
    caps = np.array([c for _, _, c in g.edges], np.float64)
    memo = _FIEDLER.get()
    if memo is None:        # outside a build: solve both, keep neither
        memo, keys = {}, ("mu", "plain")
    else:
        head = np.array([n, len(caps)], np.int64).tobytes() \
            + ends.tobytes() + caps.tobytes()
        keys = ((head, tuple(ws)), head)
    orders = []
    for key, weighted in zip(keys, (True, False)):
        order = memo.get(key)
        if order is None:
            if weighted:
                solved = [i for i, x in enumerate(ws) if x]
                mass = np.array([ws[i] for i in solved], np.float64)
                reach = g.reachable([verts[i] for i in solved])
                zero = [i for i, v in enumerate(verts)
                        if v in reach and not ws[i]]
                # massless components go last, in vertex order
                tail = [i for i, v in enumerate(verts) if v not in reach]
            else:
                solved, zero, tail = list(range(n)), [], []
                mass = np.ones(n)
            root = np.sqrt(mass)
            # the Laplacian on the positions `at` (for the mu order the
            # massed components, massed vertices first): no edge leaves
            # them, and each is stored once, so no entry is set twice
            at = np.array(solved + zero)
            place = np.full(n, -1)
            place[at] = np.arange(len(at))
            i, j = place[ends[0::2]], place[ends[1::2]]
            inside = i >= 0
            i, j, c = i[inside], j[inside], caps[inside]
            lap = np.zeros((len(at), len(at)))
            lap[i, j] = lap[j, i] = -c
            lap.flat[::len(at) + 1] = np.bincount(i, c, len(at)) \
                + np.bincount(j, c, len(at))
            size = len(solved)
            a = lap[:size, :size]
            if zero:
                # L_ZZ is positive definite: every massless vertex here
                # reaches a massed one
                extend = cho_solve(
                    cho_factor(lap[size:, size:], check_finite=False),
                    lap[size:, :size], check_finite=False)
                a -= lap[size:, :size].T @ extend
            if weighted:
                a /= np.outer(root, root)
            # Gershgorin on D^-1 S, which has the eigenvalues of a: none
            # exceeds twice the largest diagonal entry S_ii / d_i of a
            bound = 2 * a.diagonal().max()
            k = min(4, size)
            while True:
                try:
                    lam, vecs = eigh(a, check_finite=False,
                                     subset_by_index=None if k == size
                                     else [0, k - 1])
                except LinAlgError:
                    # LAPACK's subset routines can fail on an eigenvalue
                    # repeated exactly (a graph with isolated vertices);
                    # the full solve does not
                    if k == size:
                        raise
                    k = size
                    continue
                tol = max(EIG_RTOL * abs(lam[1]), EIG_FLOOR * bound)
                if k == size or lam[-1] - lam[1] > tol:
                    break
                k = min(2 * k, size)
            group = vecs[:, abs(lam - lam[1]) <= tol]
            # the centred positions, projected in the D inner product
            pos = np.array(solved, np.float64)
            pos -= mass @ pos / mass.sum()
            x = group @ (group.T @ (root * pos)) / root
            if zero:
                x = np.concatenate((x, -extend @ x))
            top = abs(x).max()
            if top > 0:
                x = np.round(x / top, ORDER_DIGITS)
            order = memo[key] = at[np.lexsort((at, x))].tolist() + tail
        orders.append([verts[i] for i in order])
    return orders


def _sweep_best(g: Graph, mu: Measure):
    """Best prefix cut over the two spectral orderings.

    Prefix capacities and prefix masses are ints, so ratios compare by
    cross-multiplication.  Returns (ratio, side) for the first strict
    minimizer, or (None, None) when fewer than two vertices carry mass, so
    no cut has a positive denominator; then nothing is solved.
    """
    if sum(1 for v in g.vertices if mu(v)) < 2:
        return None, None
    total = mu.of(g.vertices)
    # best_cap/best_den = 1/0 stands for +infinity: a cut with den = 0
    # never beats it, any cut with den > 0 does
    best_cap, best_den, best_side = 1, 0, None
    for order in _sweep_orders(g, mu):
        side = set()
        cap = mu_a = 0
        for v in order[:-1]:
            for u, c in g.adj[v]:
                cap += c if u not in side else -c
            side.add(v)
            mu_a += mu(v)
            den = min(mu_a, total - mu_a)
            if den > 0 and cap * best_den < best_cap * den:
                best_cap, best_den, best_side = cap, den, frozenset(side)
    if not best_den:
        return None, None
    return Fraction(best_cap, best_den), best_side


def sparsest_cut(g: Graph, mu: Measure):
    """(ratio, side, exact?) - exact enumeration when small, sweep otherwise.

    The spectral orders can miss a cut of capacity 0: when the sweep finds
    a positive ratio but two components of g carry mass, the first massed
    component (by least vertex) is returned with ratio 0.  Returns (None,
    None, exact?) when no cut has a positive denominator.
    """
    if g.vertex_count <= BRUTE_THRESHOLD:
        ratio, side = min_ratio_cut(g, mu)
        return ratio, side, True
    ratio, side = _sweep_best(g, mu)
    if ratio:
        massed = [c for c in g.components() if mu.of(c) > 0]
        if len(massed) > 1:
            return Fraction(0), massed[0], False
    return ratio, side, False


class PeelStep:
    def __init__(self, residual, side, ratio, exact):
        self.residual = frozenset(residual)    # A_t
        self.side = frozenset(side)            # S_t
        self.ratio = ratio                     # measured sparsity in G[A_t]
        self.exact = exact                     # backend was exact


class ExpanderCertificate:
    """Either an exact expansion value or an honest heuristic report."""

    def __init__(self, value, verified, heuristic_ratio=None):
        self.value = value                  # exact expansion (or None)
        self.verified = verified            # "exact" | "heuristic"
        self.heuristic_ratio = heuristic_ratio


class OracleOutcome:
    def __init__(self, tag, g, phi, mu, steps, residual, certificate=None,
                 degenerate=False):
        self.tag = tag          # Expander | BalancedCut | UnbalancedExpander
        self.graph = g
        self.phi = Fraction(phi)
        self.mu = mu
        self.steps = list(steps)
        self.residual = frozenset(residual)     # A
        self.certificate = certificate          # for Expander cases
        self.degenerate = degenerate
        self.logn = _log2n(g.vertex_count)
        self.threshold = ORACLE_SPARSITY_C * self.phi * self.logn

    @property
    def peeled(self):
        out = set()
        for s in self.steps:
            out |= s.side
        return frozenset(out)


def cut_or_expander(g: Graph, phi, mu: Measure):
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
    threshold = ORACLE_SPARSITY_C * phi * logn
    mu_total = mu.of(g.vertices)
    residual = set(g.vertices)
    cum = 0
    steps = []
    ended_no_cut = True
    while True:
        if 2 * cum > mu_total:
            ended_no_cut = False
            break
        g_a = g.induced(residual)
        mu_a = mu.restrict(residual)
        ratio, side, exact = sparsest_cut(g_a, mu_a)
        if ratio is None or ratio >= threshold:
            break
        other = frozenset(residual) - side
        # peel the smaller-mu side; ties by fewer vertices, then lexicographic
        def key(s):
            return (mu.of(s), len(s), tuple(sorted(s)))
        s_t = side if key(side) <= key(other) else other
        steps.append(PeelStep(frozenset(residual), s_t,
                              cut_expansion(g_a, s_t, mu_a), exact))
        residual -= s_t
        cum += mu.of(s_t)
    residual = frozenset(residual)
    if not steps or (ended_no_cut and 0 < cum <= mu_total / logn
                     and mu.of(residual) > 0):
        # no sparse cut is left: the last sparsest-cut answer, taken on
        # G[A] with mu restricted to A, is the expansion of the residual A
        # (exactly so when its backend was exact)
        if exact:
            cert = ExpanderCertificate(ratio, "exact")
        else:
            cert = ExpanderCertificate(None, "heuristic",
                                       heuristic_ratio=ratio)
        tag = "UnbalancedExpander" if steps else "Expander"
        return OracleOutcome(tag, g, phi, mu, steps, residual,
                             certificate=cert)
    return OracleOutcome("BalancedCut", g, phi, mu, steps, residual,
                         degenerate=(mu.of(residual) == 0))


class RefinedOutcome:
    def __init__(self, tag, base: OracleOutcome, nu: Measure, cut_a=None,
                 cut_a1=None, cut_a2=None):
        self.tag = tag                # 1 | 2a | 2b | 2c | 3a | 3b
        self.base = base
        self.nu = nu
        self.cut_a = cut_a            # A (cases 2a/2b/3a/3b)
        self.cut_a1 = cut_a1          # A1 (case 2c)
        self.cut_a2 = cut_a2          # A2 (case 2c)


def refined_cut_or_expander(g: Graph, phi, mu: Measure, nu: Measure):
    """Five-case refinement of the oracle, keyed on the nu-mass balance."""
    base = cut_or_expander(g, phi, mu)
    nu_total = nu.of(g.vertices)
    verts = g.vertex_set()
    if base.tag == "Expander":
        return RefinedOutcome("1", base, nu)
    if base.tag == "UnbalancedExpander":
        a = base.residual
        tag = "3a" if 2 * nu.of(verts - a) >= nu_total else "3b"
        return RefinedOutcome(tag, base, nu, cut_a=a)
    # BalancedCut
    abar = base.peeled
    if 4 * nu.of(abar) <= nu_total:
        return RefinedOutcome("2a", base, nu, cut_a=base.residual)
    cum = 0
    t0 = None
    for i, step in enumerate(base.steps):
        cum += nu.of(step.side)
        if 4 * cum > nu_total:
            t0 = i
            break
    if t0 is None:
        raise OracleError("internal: truncation index not found")
    if 2 * cum <= nu_total:
        peeled = frozenset().union(*(s.side for s in base.steps[:t0 + 1]))
        return RefinedOutcome("2b", base, nu, cut_a=verts - peeled)
    a1 = verts - (frozenset().union(*(s.side for s in base.steps[:t0]))
                  if t0 > 0 else frozenset())
    a2 = a1 - base.steps[t0].side
    return RefinedOutcome("2c", base, nu, cut_a1=a1, cut_a2=a2)


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


def check_outcome(outcome: OracleOutcome) -> CheckReport:
    rep = CheckReport()
    g = outcome.graph
    mu = outcome.mu
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
        if 2 * mu.of(step.side) > mu.of(residual):
            rep.fail("step %d: peeled the larger-mu side" % i)
        residual = residual - step.side
    if residual != outcome.residual:
        rep.fail("residual after peeling does not match the outcome")
    peeled_mu = mu.of(outcome.peeled)
    if outcome.tag == "Expander":
        if outcome.steps:
            rep.fail("Expander outcome with a nonempty peel sequence")
        _check_cert(rep, outcome.certificate, g, mu, outcome.phi,
                    "expander certificate")
    elif outcome.tag == "UnbalancedExpander":
        if not (0 < peeled_mu <= mu_total / outcome.logn):
            rep.fail("unbalanced case: peeled mass %s outside (0, mu/log n]"
                     % peeled_mu)
        _check_cert(rep, outcome.certificate, g.induced(outcome.residual),
                    mu.restrict(outcome.residual), outcome.phi,
                    "residual expander certificate")
    elif outcome.tag == "BalancedCut":
        if outcome.degenerate:
            if mu.of(outcome.residual) != 0:
                rep.fail("degenerate flag set but the residual has mass")
        else:
            lo = mu_total / (4 * outcome.logn)
            if min(peeled_mu, mu.of(outcome.residual)) < lo:
                rep.fail("balanced case: a side is below mu(V)/(4 log n)")
            if not outcome.residual or not outcome.residual < g.vertex_set():
                rep.fail("balanced case: the residual is not a proper "
                         "nonempty subset")
                return rep
            ratio = cut_expansion(g, outcome.residual, mu)
            if ratio is not None and ratio > 3 * outcome.threshold:
                rep.fail("balanced cut sparsity %s exceeds 3*threshold %s"
                         % (ratio, 3 * outcome.threshold))
    else:
        rep.fail("unknown tag %r" % (outcome.tag,))
    return rep


def _check_cert(rep, cert, g, mu, phi, label):
    if cert is None:
        rep.fail("%s missing" % label)
        return
    if cert.verified == "exact":
        if g.vertex_count > BRUTE_THRESHOLD:
            rep.fail("%s claims exact above the brute threshold" % label)
            return
        val = min_ratio_cut(g, mu)[0]
        if val != cert.value:
            rep.fail("%s: recorded value %s != recomputed %s"
                     % (label, cert.value, val))
        elif val is not None and val < Fraction(phi):
            rep.fail("%s: expansion %s below phi %s" % (label, val, phi))
    else:
        ratio, _, _ = sparsest_cut(g, mu)
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
        if tag == "2a" and 4 * nbar > nu_total:
            rep.fail("2a: nu of the peeled side exceeds nu(V)/4")
        if tag == "2b" and not (nu_total < 4 * nbar <= 2 * nu_total):
            rep.fail("2b: nu of the peeled side outside (1/4, 1/2]")
        # V \ A is what a leading run of the (checked) peel steps removed
        leading = accumulate((s.side for s in outcome.base.steps),
                             frozenset.union, initial=frozenset())
        if verts - a not in leading:
            rep.fail("%s: V\\A is not the union of leading peel steps" % tag)
    elif tag == "2c":
        a1, a2 = outcome.cut_a1, outcome.cut_a2
        mu = outcome.base.mu
        if 4 * mu.of(a2) < mu.of(verts):
            rep.fail("2c: mu(A2) below mu(V)/4")
        if 4 * nu.of(a1 - a2) < nu_total:
            rep.fail("2c: nu(A1\\A2) below nu(V)/4")
        if 4 * nu.of(verts - a1) > nu_total:
            rep.fail("2c: nu(V\\A1) above nu(V)/4")
    elif tag in ("3a", "3b"):
        a = outcome.cut_a
        nbar = nu.of(verts - a)
        if tag == "3a" and 2 * nbar < nu_total:
            rep.fail("3a: nu(V\\A) below nu(V)/2")
        if tag == "3b" and 2 * nbar > nu_total:
            rep.fail("3b: nu(V\\A) above nu(V)/2")
    else:
        rep.fail("unknown refined tag %r" % (tag,))
    return rep
