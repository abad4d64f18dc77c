import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from treecut import oracle, tree
from treecut.config import DEFAULT
import treecut.flow
from treecut.flow import ORACLE_CONGESTION_LIMIT, RouteResult, escalate
from treecut.graph import (Graph, Measure, cut_capacity, cut_expansion,
                           min_ratio_cut, parse_edge_list, subdivide)
from treecut.merge import MergePartition
from treecut.oracle import (check_outcome, check_refined, cut_or_expander,
                            refined_cut_or_expander, sparsest_cut, _log2n,
                            _sweep_best, _sweep_orders)
from treecut.tree import build_basic, build_improved

from corpus import (DENOMINATORS, dumbbell, grid, k_n, random_graph,
                    random_measure, ring_of_cliques)


def k8_pendant():
    """A K8 with vertex 8 hanging off vertex 0."""
    return parse_edge_list(
        "\n".join("%d %d" % (i, j) for i in range(8)
                  for j in range(i + 1, 8)) + "\n8 0\n")


class TestSparsestCut:
    def test_exact_below_threshold(self):
        g = k_n(5)
        ratio, side, exact = sparsest_cut(g, Measure.indicator(g.vertices),
                                          DEFAULT)
        assert exact and ratio == 3

    def test_heuristic_is_honest_above_threshold(self):
        """Above the enumeration threshold the sweep returns a real cut whose
        reported ratio matches an exact re-computation."""
        rng = random.Random(1)
        g = random_graph(rng, 24, 0.3, 3)
        mu = Measure.indicator(g.vertices)
        ratio, side, exact = sparsest_cut(g, mu, DEFAULT)
        assert not exact
        m = min(mu.of(side), mu.total() - mu.of(side))
        assert ratio == Fraction(cut_capacity(g, side)) / m
        # at a threshold of exactly that ratio nothing peels, and the
        # heuristic certificate reports the same sweep answer
        out = cut_or_expander(g, ratio / _log2n(g.vertex_count), mu)
        assert out.tag == "Expander"
        assert out.certificate.verified == "heuristic"
        assert out.certificate.heuristic_ratio == ratio


    def test_massed_components_give_a_zero_cut(self):
        """Above the threshold the spectral orders alone can miss a cut of
        capacity 0 between two massed components; sparsest_cut must not."""
        g = Graph(range(5), [(0, 4, 8), (2, 4, 5)])
        mu = Measure({0: 35, 3: 3})      # 5/3 and 1/7 times their lcm 21
        cfg = DEFAULT.replace(brute_threshold=4)
        assert sparsest_cut(g, mu, cfg) == (0, frozenset({0, 2, 4}), False)
        out = cut_or_expander(g, Fraction(1, 21), mu, cfg)
        assert out.tag == "UnbalancedExpander"
        assert [step.side for step in out.steps] == [frozenset({1, 3})]
        assert check_outcome(out).ok

    def test_zero_ratio_whenever_enumeration_finds_one(self):
        rng = random.Random(61)
        cfg = DEFAULT.replace(brute_threshold=2)
        zeros = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(3, 9), rng.choice((0.1, 0.3)),
                             4)
            mu = random_measure(rng, g.vertices)
            ratio, side, exact = sparsest_cut(g, mu, cfg)
            want, _ = min_ratio_cut(g, mu)
            assert not exact and (ratio == 0) == (want == 0)
            if ratio is not None:
                assert ratio == cut_expansion(g, side, mu)
            zeros += want == 0
        assert zeros > 50


def bridged_cliques(s):
    """Two K_s joined by one unit bridge between s-1 and s."""
    left = [(i, j, 1) for i in range(s) for j in range(i + 1, s)]
    right = [(u + s, v + s, 1) for u, v, _ in left]
    return Graph(range(2 * s), left + right + [(s - 1, s, 1)])


class TestSweep:
    """Checks that hold whichever Fiedler vector the eigensolver returns."""

    def test_tiny_graphs_skip_the_solver(self, monkeypatch):
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        for n in (0, 1):
            g = Graph(range(n), [])
            assert _sweep_best(g, Measure.indicator(g.vertices)) == \
                (None, None)

    def test_no_solve_below_two_massed_vertices(self, eigh_calls):
        """No cut scores then, so nothing is solved; edgeless graphs and
        graphs of many components included."""
        for g in (bridged_cliques(12), Graph(range(30), []),
                  Graph(range(30), [(i, i + 1, 1) for i in range(0, 30, 2)])):
            for mu in (Measure({}), Measure({0: 1}), Measure({29: 7})):
                assert _sweep_best(g, mu) == (None, None)
                assert sparsest_cut(g, mu) == (None, None, False)
        assert eigh_calls[0] == 0

    def test_two_vertices(self):
        mu = Measure.indicator([0, 1])
        ratio, side = _sweep_best(Graph([0, 1], [(0, 1, 3)]), mu)
        assert ratio == 3 and side in ({0}, {1})
        ratio, side = _sweep_best(Graph([0, 1], []), mu)
        assert ratio == 0 and side in ({0}, {1})
        assert _sweep_best(Graph([0, 1], []), Measure({0: 1})) == \
            (None, None)

    def test_bridge_of_two_cliques(self):
        g = bridged_cliques(12)
        ratio, side, exact = sparsest_cut(g, Measure.indicator(g.vertices))
        assert not exact
        assert ratio == Fraction(1, 12)
        assert side in (frozenset(range(12)), frozenset(range(12, 24)))

    def test_never_below_the_exact_minimum(self):
        rng = random.Random(53)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 12), rng.choice((0.3, 0.6)),
                             4)
            mu = random_measure(rng, g.vertices)
            ratio, side = _sweep_best(g, mu)
            exact, _ = min_ratio_cut(g, mu)
            assert (ratio is None) == (exact is None)
            if ratio is not None:
                assert ratio >= exact
                assert ratio == cut_expansion(g, side, mu)

    def test_orders_are_permutations(self):
        # the sweep solves only when at least two vertices carry mass
        rng = random.Random(59)
        solved = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 12), 0.4, 3)
            mu = random_measure(rng, g.vertices)
            if len(mu.weights) < 2:
                continue
            solved += 1
            orders = _sweep_orders(g, mu)
            assert len(orders) == 2
            for order in orders:
                assert sorted(order) == sorted(g.vertices)
        assert solved > 20


class NoMemo:
    """Stands in for oracle._FIEDLER: no build ever holds a memo, so every
    sweep solves both eigenproblems."""

    def set(self, value):
        return None

    def reset(self, token):
        pass

    def get(self):
        return None


@pytest.fixture
def eigh_calls(monkeypatch):
    """The number of scipy.linalg.eigh calls so far, in a one-item list."""
    import scipy.linalg
    calls = [0]
    real = scipy.linalg.eigh

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    return calls


class TestFiedlerMemo:
    """A build solves each distinct sweep eigenproblem once and keeps no
    solution past its end."""

    @pytest.mark.parametrize("g, build", [
        (ring_of_cliques(8, 4), build_basic),
        (ring_of_cliques(32, 4), build_basic),
        (ring_of_cliques(4, 5), build_improved),
        (grid(5, 5), build_basic),
        (grid(5, 5), build_improved)],
        ids=["8x4-basic", "32x4-basic", "4x5-improved", "grid-basic",
             "grid-improved"])
    def test_memo_keeps_tree_bytes(self, g, build, monkeypatch):
        with_memo = build(g).to_json()
        monkeypatch.setattr(oracle, "_FIEDLER", NoMemo())
        assert build(g).to_json() == with_memo

    def test_memo_saves_solves(self, eigh_calls, monkeypatch):
        g = ring_of_cliques(32, 4)
        build_basic(g)
        with_memo = eigh_calls[0]
        monkeypatch.setattr(oracle, "_FIEDLER", NoMemo())
        build_basic(g)
        assert 0 < with_memo < eigh_calls[0] - with_memo

    def test_key_holds_the_vertex_count(self):
        """An isolated vertex adds nothing to the positional edge list,
        only to the vertex count."""
        rng = random.Random(61)
        mu = Measure.indicator(range(7))
        for _ in range(10):
            g = random_graph(rng, 6, 0.6, 4)
            h = Graph(range(7), g.edges)
            alone = _sweep_orders(h, mu)
            with oracle._fiedler_memo():
                _sweep_orders(g, mu)
                assert _sweep_orders(h, mu) == alone

    def test_key_holds_the_masses(self):
        """One graph under many measures: each mu problem has its own
        masses."""
        rng = random.Random(67)
        g = random_graph(rng, 10, 0.5, 4)
        measures = [random_measure(rng, g.vertices) for _ in range(20)]
        alone = [_sweep_orders(g, mu) for mu in measures]
        with oracle._fiedler_memo():
            assert [_sweep_orders(g, mu) for mu in measures] == alone

    def test_no_memo_outlives_a_build(self, eigh_calls, monkeypatch):
        big = bridged_cliques(12)
        mu = Measure.indicator(big.vertices)
        sparsest_cut(big, mu)
        sparsest_cut(big, mu)
        assert eigh_calls[0] == 4       # outside a build nothing is kept
        merge_phase = tree.merge_phase
        inside = []

        def solving(view, tau, cfg):
            before = eigh_calls[0]
            sparsest_cut(big, mu)
            inside.append(eigh_calls[0] - before)
            return merge_phase(view, tau, cfg)

        monkeypatch.setattr(tree, "merge_phase", solving)
        build_basic(ring_of_cliques(3, 4))
        assert inside[0] == 2 and not any(inside[1:])
        before = eigh_calls[0]
        sparsest_cut(big, mu)
        assert eigh_calls[0] - before == 2

        def failing(view, tau, cfg):
            sparsest_cut(big, mu)
            raise RuntimeError("merge failed")

        monkeypatch.setattr(tree, "merge_phase", failing)
        with pytest.raises(RuntimeError):
            build_basic(ring_of_cliques(3, 4))
        before = eigh_calls[0]
        sparsest_cut(big, mu)
        assert eigh_calls[0] - before == 2


def dense_laplacian(g):
    import numpy as np
    idx = {v: i for i, v in enumerate(g.vertices)}
    lap = np.zeros((g.vertex_count, g.vertex_count))
    for u, v, c in g.edges:
        i, j = idx[u], idx[v]
        lap[i, j] = lap[j, i] = -c
        lap[i, i] += c
        lap[j, j] += c
    return lap


def project(at, a, mass, lam, vecs, zero=(), extend=None):
    """The sweep's rule on the solved positions `at`: project the centred
    positions onto lambda_2's group in the mass inner product, extend to
    the positions `zero` by `extend`, scale, round, and sort by (value,
    position)."""
    import numpy as np
    tol = max(oracle.EIG_RTOL * abs(lam[1]),
              oracle.EIG_FLOOR * 2 * a.diagonal().max())
    group = vecs[:, abs(lam - lam[1]) <= tol]
    root = np.sqrt(mass)
    pos = np.array(at, np.float64)
    pos -= mass @ pos / mass.sum()
    x = group @ (group.T @ (root * pos)) / root
    if zero:
        x = np.concatenate((x, -extend @ x))
    x = np.round(x / abs(x).max(), oracle.ORDER_DIGITS)
    return [i for _, i in sorted(zip(x.tolist(), list(at) + list(zero)))]


def full_eigh_orders(g, mu):
    """Both sweep orders of a connected g from a full dense eigh (no
    subset) of the same two problems, the mu one Kron-reduced by a plain
    linear solve, each taken through the sweep's projection."""
    import numpy as np
    from scipy.linalg import eigh
    lap = dense_laplacian(g)
    verts = g.vertices
    massed = [i for i, v in enumerate(verts) if mu(v)]
    zero = [i for i, v in enumerate(verts) if not mu(v)]
    extend = np.linalg.solve(lap[np.ix_(zero, zero)],
                             lap[np.ix_(zero, massed)])
    s = lap[np.ix_(massed, massed)] - lap[np.ix_(massed, zero)] @ extend
    mass = np.array([mu(verts[i]) for i in massed], np.float64)
    a = s / np.sqrt(np.outer(mass, mass))
    mu_order = project(massed, a, mass, *eigh(a), zero, extend)
    plain = range(len(verts))
    plain_order = project(plain, lap, np.ones(len(verts)), *eigh(lap))
    return [[verts[i] for i in order] for order in (mu_order, plain_order)]


def reference_mu_order(g, mu, scale):
    """The mu order as the sweep made it before the Kron reduction: the
    generalized problem on every vertex, each mass mu / scale floored at
    1e-9, sorted by its Fiedler vector.  Returns (values by vertex, scaled to the
    largest magnitude, lambda_2, lambda_3)."""
    import numpy as np
    from scipy.linalg import eigh
    mass = np.array([max(mu(v) / scale, 1e-9) for v in g.vertices])
    lam, vecs = eigh(dense_laplacian(g), np.diag(mass),
                     subset_by_index=[0, 2])
    x = vecs[:, 1] / abs(vecs[:, 1]).max()
    return dict(zip(g.vertices, x.tolist())), lam[1], lam[2]


def rotated_eigh(monkeypatch, seed):
    """Make scipy.linalg.eigh return another orthonormal basis of every
    eigenspace it returns: each group of eigenvalues equal to within 1e-9
    of the largest is mixed by a random orthogonal matrix, and then every
    vector's sign is flipped at random.  Returns the number of groups of
    two or more vectors mixed so far, in a one-item list."""
    import numpy as np
    import scipy.linalg
    real = scipy.linalg.eigh
    rng = np.random.default_rng(seed)
    mixed = [0]

    def rotated(*args, **kwargs):
        lam, vecs = real(*args, **kwargs)
        vecs = vecs.copy()
        tol = 1e-9 * max(1.0, abs(lam).max())
        start = 0
        while start < len(lam):
            end = start + 1
            while end < len(lam) and lam[end] - lam[start] <= tol:
                end += 1
            if end - start > 1:
                q, _ = np.linalg.qr(rng.standard_normal((end - start,) * 2))
                vecs[:, start:end] = vecs[:, start:end] @ q
                mixed[0] += 1
            start = end
        return lam, vecs * rng.choice((-1.0, 1.0), len(lam))

    monkeypatch.setattr(scipy.linalg, "eigh", rotated)
    return mixed


def ring32_subdivision():
    """The subdivision graph of ring 32x4 and the counting measure on its
    base vertices: the root problem of a 32x4 build, whose lambda_2 is
    double."""
    base = ring_of_cliques(32, 4)
    g = subdivide(base).view(base.vertices).sub_in
    return g, Measure.indicator(base.vertices)


# sha256 of repr() of both sweep orders of ring32_subdivision()
RING32_ORDERS = \
    "27cbf46a0db4b4e44a5adb448c36b048bb3bc590806b873807b0edef045e8f10"


class TestSpectralOrders:
    """The sweep's orders rest on the problem alone, not on the basis eigh
    picks for a repeated eigenvalue, nor on a subset or a full solve."""

    def test_ring32_orders_pinned(self):
        g, mu = ring32_subdivision()
        orders = _sweep_orders(g, mu)
        assert orders == full_eigh_orders(g, mu)
        assert hashlib.sha256(repr(orders).encode()).hexdigest() \
            == RING32_ORDERS

    def test_orders_ignore_the_basis(self, monkeypatch):
        g, mu = ring32_subdivision()
        orders = _sweep_orders(g, mu)
        tree_bytes = build_basic(ring_of_cliques(8, 6)).to_json()
        mixed = rotated_eigh(monkeypatch, 5)
        assert _sweep_orders(g, mu) == orders
        assert mixed[0] >= 2        # both problems have a double lambda_2
        assert build_basic(ring_of_cliques(8, 6)).to_json() == tree_bytes

    def test_kron_reduction_is_the_floor_limit(self):
        """On connected graphs with a simple lambda_2, the mu order sorts
        the floored Fiedler vector, oriented as the sweep orients its own,
        up to values within 1e-9."""
        import numpy as np
        rng = random.Random(71)
        compared = 0
        while compared < 40:
            g = random_graph(rng, rng.randint(4, 24), 0.35, 5)
            mu = random_measure(rng, g.vertices)
            if len(g.components()) > 1 or len(mu.weights) < 2:
                continue
            ref, lam2, lam3 = reference_mu_order(g, mu, lcm(*DENOMINATORS))
            if lam3 - lam2 <= 1e-3 * lam2:
                continue
            # the sweep takes the sign that correlates with the positions
            pos = np.arange(g.vertex_count, dtype=np.float64)
            mass = np.array([mu(v) for v in g.vertices], np.float64)
            x = np.array([ref[v] for v in g.vertices])
            if x @ (mass * (pos - mass @ pos / mass.sum())) < 0:
                ref = {v: -x for v, x in ref.items()}
            order = _sweep_orders(g, mu)[0]
            assert all(ref[a] <= ref[b] + 1e-9
                       for a, b in zip(order, order[1:]))
            compared += 1


class TestCutOrExpander:
    def test_k5_is_expander(self):
        g = k_n(5)
        out = cut_or_expander(g, Fraction(1, 4), Measure.indicator(g.vertices))
        assert out.tag == "Expander"
        assert out.certificate.verified == "exact"
        assert out.certificate.value == min_ratio_cut(
            g, Measure.indicator(g.vertices))[0]
        assert check_outcome(out).ok

    def test_dumbbell_balanced_cut(self):
        g = dumbbell()
        out = cut_or_expander(g, Fraction(1, 4), Measure.indicator(g.vertices))
        assert out.tag == "BalancedCut"
        assert check_outcome(out).ok
        # stopping rule: both sides carry at least mu_total / (4 log n)
        mu_total = Fraction(6)
        bound = mu_total / (4 * out.logn)
        assert out.mu.of(out.residual) >= bound
        assert out.mu.of(out.peeled) >= bound

    def test_unbalanced_expander_case(self):
        """A K8 with one pendant vertex under a heavy measure: the pendant
        cut is sparse and peels off, the core certifies, and the peeled
        measure stays below mu_total / log n."""
        g = k8_pendant()
        mu = Measure({v: 8 for v in range(9)})
        out = cut_or_expander(g, Fraction(1, 16), mu)
        assert out.tag == "UnbalancedExpander"
        assert out.mu.of(out.peeled) <= mu.total() / out.logn
        assert out.certificate.verified == "exact"
        assert out.certificate.value == min_ratio_cut(
            g.induced(out.residual), mu.restrict(out.residual))[0]
        assert check_outcome(out).ok

    def test_telescoping_and_smaller_side(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 9), 0.5, 3)
            mu = Measure({v: rng.randint(0, 2) for v in g.vertices})
            if mu.total() == 0:
                continue
            out = cut_or_expander(g, Fraction(1, 6), mu)
            rep = check_outcome(out)
            assert rep.ok, rep.failures
            checked += 1
            seen = set()
            for step in out.steps:
                assert step.residual == g.vertex_set() - seen
                assert out.mu.of(step.side) <= \
                    out.mu.of(step.residual - step.side)
                seen |= step.side
        assert checked >= 10

    def test_aggregate_sparsity_bound(self):
        """Accumulated peeled cut capacity stays within 3x threshold times
        the residual measure (the stopping-rule guarantee)."""
        rng = random.Random(43)
        for _ in range(20):
            g = random_graph(rng, rng.randint(5, 9), 0.4, 3)
            mu = Measure.indicator(g.vertices)
            out = cut_or_expander(g, Fraction(1, 8), mu)
            if out.tag != "BalancedCut":
                continue
            total_cap = sum(cut_capacity(g.induced(s.residual), s.side)
                            for s in out.steps)
            small = min(out.mu.of(out.residual), out.mu.of(out.peeled))
            assert total_cap <= 3 * out.threshold * small

    def test_zero_measure_graph_is_trivially_expanding(self):
        g = k_n(3)
        out = cut_or_expander(g, Fraction(1, 2), Measure({}))
        assert out.tag == "Expander"
        assert check_outcome(out).ok

    def test_sweep_driven_ring_builds_check(self):
        """Every oracle outcome of the 6x4 and 8x6 basic ring builds passes
        its self-check; most of them come from the sweep backend."""
        swept = 0
        for k, s in ((6, 4), (8, 6)):
            tree = build_basic(ring_of_cliques(k, s))
            for node in tree.nodes():
                if not isinstance(node.detail, MergePartition):
                    continue
                for out in node.detail.clustering.outcomes:
                    rep = check_outcome(out)
                    assert rep.ok, rep.failures
                    swept += any(not step.exact for step in out.steps) or (
                        out.certificate is not None
                        and out.certificate.verified == "heuristic")
        assert swept >= 5


class TestEscalation:
    def test_sequence(self):
        """The cap doubles up to its limit, then the sink boost doubles; a
        flow infeasible at every level gets no record."""
        caps = [Fraction(c) for c in (4, 8, 16, 32, 64)]
        boosts = [Fraction(b) for b in (2, 4, 8, 16, 32, 64)]
        for limit, want in ((64, [(c, 1) for c in caps]
                             + [(caps[-1], b) for b in boosts]),
                            (1, [(c, 1) for c in caps])):
            tried = []

            def solve(sink_caps, cap):
                tried.append((cap, sink_caps["x"] / 3))
                return RouteResult(False, None)

            rec = escalate(solve, {"x": Fraction(3)}, DEFAULT,
                           boost_limit=limit)
            assert tried == want
            assert rec is None

    def test_record_of_an_escalated_level(self):
        """A flow that first routes at sink boost 4 records the last cap,
        that boost and the boosted sink caps, outside the declared cap."""
        routed = object()

        def solve(sink_caps, cap):
            return RouteResult(sink_caps["x"] == 12, routed)

        rec = escalate(solve, {"x": Fraction(3)}, DEFAULT)
        assert rec.flow is routed
        assert rec.congestion_cap == ORACLE_CONGESTION_LIMIT == 64
        assert (rec.sink_boost, rec.sink_caps) == (4, {"x": 12})
        assert rec.within_declared is False


class TestRefined:
    def test_case_1_passthrough(self):
        g = k_n(5)
        mu = Measure.indicator(g.vertices)
        out = refined_cut_or_expander(g, Fraction(1, 4), mu, mu)
        assert out.tag == "1"
        assert check_refined(out).ok

    def test_case_2_split_by_nu(self):
        g = dumbbell()
        mu = Measure.indicator(g.vertices)
        # nu concentrated on the residual side forces a low peeled nu
        out = refined_cut_or_expander(g, Fraction(1, 4), mu, mu)
        assert out.tag in ("2a", "2b", "2c")
        rep = check_refined(out)
        assert rep.ok, rep.failures

    def test_case_3_split_by_nu(self):
        g = k8_pendant()
        mu = Measure({v: 8 for v in range(9)})
        for nu, want in ((Measure({8: 1}), "3a"), (Measure({0: 1}), "3b")):
            out = refined_cut_or_expander(g, Fraction(1, 16), mu, nu)
            # 3a when the left-over nu is small, 3b when it dominates
            assert out.tag == want
            rep = check_refined(out)
            assert rep.ok, rep.failures

    def test_random_refined_always_checks(self):
        rng = random.Random(47)
        tags = set()
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 9), 0.45, 3)
            mu = Measure({v: rng.randint(0, 2) for v in g.vertices})
            nu = Measure({v: rng.randint(0, 2) for v in g.vertices})
            if mu.total() == 0:
                continue
            out = refined_cut_or_expander(g, Fraction(1, 6), mu, nu)
            rep = check_refined(out)
            assert rep.ok, (out.tag, rep.failures)
            tags.add(out.tag)
        assert len(tags) >= 2


def _dumbbell_outcome():
    return cut_or_expander(dumbbell(), Fraction(1, 4),
                           Measure.indicator(range(6)))


def _balanced_outcome():
    """A weighted dumbbell whose peel ends in a BalancedCut."""
    mu = Measure({0: 4, 1: 4, 2: 4, 3: 4, 4: 4, 5: 1})
    out = cut_or_expander(dumbbell(), Fraction(1, 4), mu)
    assert out.tag == "BalancedCut"
    return out


def _refined_2b():
    mu = Measure.indicator(range(6))
    out = refined_cut_or_expander(dumbbell(), Fraction(1, 4), mu, mu)
    assert out.tag == "2b"
    return out


class TestCheckersReject:
    """Every tampered outcome fails its self-check with the matching
    message."""

    @pytest.mark.parametrize("make, tamper, message", [
        (_dumbbell_outcome,
         lambda out: setattr(out.steps[0], "ratio", out.steps[0].ratio + 1),
         "recorded sparsity"),
        (lambda: cut_or_expander(k8_pendant(), Fraction(1, 16),
                                 Measure({v: 8 for v in range(9)})),
         lambda out: setattr(out.steps[0], "side",
                             out.steps[0].residual - out.steps[0].side),
         "peeled the larger-mu side"),
        (_dumbbell_outcome,
         lambda out: setattr(out, "residual",
                             out.residual - {min(out.residual)}),
         "residual after peeling does not match"),
        (lambda: cut_or_expander(k_n(5), Fraction(1, 4),
                                 Measure.indicator(range(5))),
         lambda out: setattr(out.certificate, "value",
                             out.certificate.value + 1),
         "recorded value"),
        (_balanced_outcome,
         lambda out: setattr(out, "residual", frozenset({5})),
         "a side is below mu(V)/(4 log n)"),
        (_balanced_outcome,
         lambda out: setattr(out, "residual", frozenset()),
         "residual is not a proper nonempty subset"),
        (_balanced_outcome,
         lambda out: setattr(out, "residual", frozenset(range(6))),
         "residual is not a proper nonempty subset"),
        (_refined_2b,
         lambda out: setattr(out, "cut_a", out.cut_a | {2}),
         "not the union of leading peel steps"),
    ], ids=["ratio", "larger-side", "residual", "certificate", "balance",
            "empty-residual", "full-residual", "leading-steps"])
    def test_tampered_outcome_fails(self, make, tamper, message):
        out = make()
        check = check_refined if hasattr(out, "nu") else check_outcome
        assert check(out).ok
        tamper(out)
        rep = check(out)
        assert not rep.ok
        assert any(message in f for f in rep.failures), rep.failures


class TestNoRouting:
    def test_oracle_routes_nothing(self, monkeypatch):
        """Neither oracle routes a flow: each flow the build keeps is routed
        where it is used."""
        calls = []
        real = treecut.flow.max_flow

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(treecut.flow, "max_flow", counted)
        g = dumbbell()
        out = cut_or_expander(g, Fraction(1, 4), Measure.indicator(g.vertices))
        assert out.steps
        mu = Measure({v: 8 for v in range(9)})
        for nu, want in ((Measure({8: 1}), "3a"), (Measure({0: 1}), "3b")):
            out = refined_cut_or_expander(k8_pendant(), Fraction(1, 16), mu,
                                          nu)
            assert out.tag == want
        assert calls == []
