"""Optimal transport: exact oracle, Sinkhorn solver, divergence, diagnostics."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop import ot
from geoloop.rep_metrics import EmpiricalMeasure


class UnsupportedInstanceError(ValueError):
    """Instance is outside the range the exact oracle accepts."""


def exact_w2_small(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W2^2 between equal-size uniform clouds by a search over matchings.

    Test oracle (acceptance 2 checks Sinkhorn against it); refuses anything
    beyond 10 points per side.  A depth-first search matches rows in order
    and adds costs[i, j] in row order, so every full matching's total is the
    float its left-to-right sum gives.  It drops a partial matching once its
    running sum reaches the best total: the costs are clamped at 0, so no
    completion of it is smaller.
    """
    if a.size != b.size:
        raise UnsupportedInstanceError("exact oracle needs equal-size clouds")
    if a.size > 10:
        raise UnsupportedInstanceError("exact oracle handles at most 10 points per side")
    costs = ot.squared_distances(a.points, b.points).tolist()
    n = a.size
    used = [False] * n
    best = math.inf

    def extend(i: int, total: float) -> None:
        nonlocal best
        if i == n:
            best = total
            return
        for j in range(n):
            running = total + costs[i][j]
            if not used[j] and running < best:
                used[j] = True
                extend(i + 1, running)
                used[j] = False

    extend(0, 0.0)
    return best / n


def brute_force_w2(xa, xb):
    """Independent permutation-enumeration oracle, with its own costs."""
    xa, xb = np.atleast_2d(xa), np.atleast_2d(xb)
    n = xa.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.sum((xa[i] - xb[j]) ** 2)) for i, j in enumerate(perm))
        best = min(best, cost)
    return best / n


def random_cloud(rng, n, d=2, offset=0.0):
    return EmpiricalMeasure(rng.normal(offset, 1.0, (n, d)))


class TestExactW2:
    def test_identical_clouds(self):
        m = EmpiricalMeasure([[0.0, 1.0], [2.0, 3.0]])
        assert exact_w2_small(m, m) == pytest.approx(0.0)

    def test_singletons(self):
        a, b = EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[3.0]])
        assert exact_w2_small(a, b) == pytest.approx(9.0)

    def test_interleaved_points_prefer_monotone(self):
        a = EmpiricalMeasure([[0.0], [2.0]])
        b = EmpiricalMeasure([[1.0], [3.0]])
        assert exact_w2_small(a, b) == pytest.approx(1.0)

    def test_size_limits(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UnsupportedInstanceError):
            exact_w2_small(random_cloud(rng, 11), random_cloud(rng, 11))
        with pytest.raises(UnsupportedInstanceError):
            exact_w2_small(random_cloud(rng, 3), random_cloud(rng, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_matches_independent_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_cloud(rng, n), random_cloud(rng, n)
        assert exact_w2_small(a, b) == pytest.approx(
            brute_force_w2(a.points, b.points), rel=1e-12)


class TestEntropicOt:
    def test_forced_plan_singletons(self):
        a, b = EmpiricalMeasure([[0.0, 0.0]]), EmpiricalMeasure([[3.0, 4.0]])
        res = ot.entropic_ot(a, b, 0.5)
        assert res["value"] == pytest.approx(25.0, abs=1e-9)
        assert res["converged"]

    def test_self_coupling_value_vanishes_with_eps(self):
        rng = np.random.default_rng(1)
        m = random_cloud(rng, 4)
        hi = ot.entropic_ot(m, m, 1e-1)["value"]
        lo = ot.entropic_ot(m, m, 1e-3)["value"]
        assert lo < hi
        assert lo == pytest.approx(0.0, abs=1e-2)

    def test_two_point_instance_near_exact(self):
        a = EmpiricalMeasure([[0.0], [2.0]])
        b = EmpiricalMeasure([[1.0], [3.0]])
        res = ot.entropic_ot(a, b, 1e-3)
        assert res["value"] == pytest.approx(1.0, abs=1e-3)

    def test_plan_marginals(self):
        rng = np.random.default_rng(2)
        a, b = random_cloud(rng, 5), random_cloud(rng, 3, offset=1.0)
        # unequal sizes are fine for the solver (only the oracle needs equality)
        res = ot.entropic_ot(a, b, 1e-2)
        plan = res["raw_plan"]
        violation = (np.abs(plan.sum(axis=1) - a.weights).sum()
                     + np.abs(plan.sum(axis=0) - b.weights).sum())
        assert violation < 1e-6
        assert res["converged"]

    def test_epsilon_must_be_positive(self):
        m = EmpiricalMeasure([[0.0]])
        with pytest.raises(ValidationError):
            ot.entropic_ot(m, m, 0.0)

    def test_violation_trace_decreases(self):
        rng = np.random.default_rng(3)
        a, b = random_cloud(rng, 6), random_cloud(rng, 6, offset=2.0)
        res = ot.entropic_ot(a, b, 1e-2)
        trace = res["violation_trace"]
        assert len(trace) >= 1
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9)

    def test_violation_trace_ends_at_raw_plan_violation(self, monkeypatch):
        # The trace's last entry must be the violation of the plan returned,
        # whether the solve converged, hit MAX_ITER among the Newton steps at
        # the target eps (17 of the 19 iterations the trainer-like pair takes
        # to converge) or stopped at a failed Newton step (the integer
        # clouds, 27 and 26 points on 16 indices, at their first target-eps
        # step after 28 iterations).
        rng = np.random.default_rng(8)
        even = random_cloud(rng, 6), random_cloud(rng, 6, offset=1.0)
        trainer = unit_cloud(0), unit_cloud(50)
        rng = np.random.default_rng(13)
        sizes = rng.integers(4, 30, size=2)
        index = tuple(EmpiricalMeasure(rng.integers(0, 16, (k, 1))) for k in sizes)
        for (a, b), eps, max_iter, converged in ((even, 1e-2, ot.MAX_ITER, True),
                                                 (trainer, 0.12 ** 2, 17, False),
                                                 (index, 1e-3, ot.MAX_ITER, False)):
            monkeypatch.setattr(ot, "MAX_ITER", max_iter)
            res = ot.entropic_ot(a, b, eps)
            assert res["converged"] is converged
            recomputed = np.abs(res["raw_plan"].sum(axis=1) - a.weights).sum()
            assert res["violation_trace"][-1] == pytest.approx(recomputed, abs=1e-12)

    def test_max_iter_spent_above_the_target_eps(self, monkeypatch):
        # The largest cost (about 200) is far above eps, so three iterations
        # end on a coarse level: the trace is empty, no violation is
        # reported, and g is T(f) at the target eps, so the plan's column
        # sums are b's weights (a g left at the coarse level gives 1e81).
        rng = np.random.default_rng(0)
        a, b = random_cloud(rng, 5), random_cloud(rng, 4, offset=10.0)
        monkeypatch.setattr(ot, "MAX_ITER", 3)
        res = ot.entropic_ot(a, b, 1e-2)
        assert res["violation_trace"] == [] and res["converged"] is False
        assert res["iterations"] == 3
        assert res["raw_plan"].sum(axis=0) == pytest.approx(b.weights, abs=1e-9)
        _, grad, stats = ot.sinkhorn_divergence_with_grad(a, b, 1e-2)
        assert stats["converged"] is False and math.isnan(stats["violation"])
        assert np.all(np.isfinite(grad))

    def test_log_domain_stability_small_eps(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 1, (6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        m1 = EmpiricalMeasure(pts)
        pts2 = rng.normal(0, 1, (6, 3))
        pts2 /= np.linalg.norm(pts2, axis=1, keepdims=True)
        m2 = EmpiricalMeasure(pts2)
        res = ot.entropic_ot(m1, m2, 1e-4)
        assert math.isfinite(res["value"])
        assert np.all(np.isfinite(res["raw_plan"]))


def unit_cloud(seed, n=32, d=32, rank=6):
    """Unit-norm points on a rank-`rank` subspace, like the trainer's hidden clouds."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 1, (n, rank)) @ rng.normal(0, 1, (rank, d))
    return EmpiricalMeasure(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def plan_value(costs, log_a, log_b, f, g, eps):
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / eps
    plan = np.exp(log_plan)
    return float(np.sum(plan * costs) + eps * np.sum(plan * (log_plan - log_a[:, None] - log_b[None, :])))


def plan_of(costs, log_a, log_b, f, g, eps):
    """The plan of the potentials (f, g), as ot.entropic_ot forms it."""
    return np.exp(log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / eps)


def difference_costs(x, y):
    """Squared distances from the difference tensor x_i - y_j: the reference
    for the Gram form."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestSquaredDistances:
    def clouds(self):
        """(x, y) pairs: the trainer's unit clouds, acceptance 2's N(0,1) and
        N(2,1) clouds, clouds of unequal size, and clouds 1e3 from the origin."""
        rng = np.random.default_rng(20260808)
        pairs = [(unit_cloud(0).points, unit_cloud(50).points)]
        for _ in range(20):
            n = int(rng.integers(2, 9))
            pairs.append((rng.normal(0, 1, (n, 2)), rng.normal(2.0, 1, (n, 2))))
        for n, m in ((5, 3), (1, 7), (12, 2)):
            pairs.append((rng.normal(0, 1, (n, 4)), rng.normal(1.0, 1, (m, 4))))
        pairs.append((rng.normal(1e3, 1, (6, 3)), rng.normal(1e3 + 2, 1, (9, 3))))
        pairs.append((rng.normal(-1e3, 1, (8, 2)), rng.normal(1e3, 1, (8, 2))))
        return pairs

    def test_self_costs_have_zero_diagonal_and_are_symmetric(self):
        for x, y in self.clouds():
            for cloud in (x, y):
                costs = ot.squared_distances(cloud, cloud)
                assert np.all(np.diag(costs) == 0.0)
                assert np.array_equal(costs, costs.T)

    def test_matches_difference_form(self):
        for x, y in self.clouds():
            for first, second in ((x, y), (y, x), (x, x), (y, y)):
                want = difference_costs(first, second)
                got = ot.squared_distances(first, second)
                assert got.shape == want.shape
                assert np.all(got >= 0.0)
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, want.max())

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValidationError):
            ot.squared_distances(np.zeros((3, 2)), np.zeros((4, 3)))


class TestSymmetricSelfTerm:
    EPS = 0.12 ** 2

    def test_converges_fast_and_matches_long_alternating_solve(self):
        # The alternating log-domain loop from f = 0 has not converged on
        # this cloud at 500 iterations; it does by 20 000 (5 426).
        m = unit_cloud(1)
        costs = ot.squared_distances(m.points, m.points)
        log_w = np.log(m.weights)
        f, g, iterations, converged, _ = ot._sinkhorn_potentials(costs, log_w, None, self.EPS)
        assert converged
        assert iterations <= 100
        rf, rg, _, r_converged, _ = reference_potentials(
            costs, log_w, log_w, self.EPS, np.zeros(m.size), 20_000, ot.TOL)
        assert r_converged
        assert plan_value(costs, log_w, log_w, f, g, self.EPS) == pytest.approx(
            plan_value(costs, log_w, log_w, rf, rg, self.EPS), rel=1e-6)

    def test_peaked_plans_keep_a_finite_trace(self, monkeypatch):
        # Dirichlet(0.05) weights over 16 integer indices at eps 1e-4, zero
        # weights dropped.  Behind a 20-fold eps step the first target-eps
        # plans of 20 of these 40 have row sums up to e^1571; from f = 0
        # they are at most a.  Self terms take no eps step: a scaling of
        # 0.05 is ignored.
        monkeypatch.setattr(ot, "SCALING", 0.05)
        idx = np.arange(16, dtype=float)
        costs = (idx[:, None] - idx[None, :]) ** 2
        with np.errstate(over="raise"):
            for seed in range(20):
                for p in np.random.default_rng(seed).dirichlet(np.full(16, 0.05), size=2):
                    keep = p > 0
                    _, _, _, converged, trace = ot._sinkhorn_potentials(
                        costs[np.ix_(keep, keep)], np.log(p[keep]), None, 1e-4)
                    assert converged
                    assert np.all(np.isfinite(trace))

    @pytest.mark.parametrize("kind", ["trainer", "acceptance_2", "index"])
    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_scaling_loop_from_zero(self, kind, seed):
        # No eps ladder: the solve is the scaling loop from f = 0 at the
        # target eps, bit for bit.
        costs, log_a, _, eps = solver_instances(kind, seed)[1]
        result = ot._sinkhorn_potentials(costs, log_a, None, eps)
        f, g, iterations, converged, trace = ot._scaling_loop(costs, log_a, eps)
        assert np.array_equal(result[0], f) and np.array_equal(result[1], g)
        assert result[2:] == (iterations, converged, trace)

    @pytest.mark.parametrize("kind", ["trainer", "acceptance_2", "index"])
    def test_converges_within_25_iterations(self, kind):
        # Behind an eps ladder these take 27-58 iterations.
        for seed in range(8):
            costs, log_a, _, eps = solver_instances(kind, seed)[1]
            _, _, iterations, converged, _ = ot._sinkhorn_potentials(costs, log_a, None, eps)
            assert converged and iterations <= 25

    def test_entropic_ot_self_plan_is_symmetric(self):
        for m in (unit_cloud(2, n=9, d=4, rank=2), unit_cloud(3)):
            res = ot.entropic_ot(m, m, self.EPS)
            assert res["converged"]
            assert np.array_equal(res["raw_plan"], res["raw_plan"].T)


def reference_logsumexp(arr, axis):
    peak = arr.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak.squeeze(axis) + np.log(np.exp(arr - peak).sum(axis=axis))


def reference_potentials(costs, log_a, log_b, epsilon, f, max_iter, tol):
    """The log-domain Sinkhorn loop at the target eps from f, two log-sum-exps per iteration.

    Kept as the reference for ot._scaling_loop, which runs the same
    symmetric iterations (log_b=None) from f = 0 in absorbed scaling form;
    with log_b given it is the alternating loop.  Same results as
    ot._scaling_loop.
    """
    symmetric = log_b is None
    a = np.exp(log_a)
    f_next = f
    iterations = 0
    trace = []
    converged = False
    while iterations < max_iter:
        iterations += 1
        f = f_next
        g = -epsilon * reference_logsumexp(log_a[:, None] + (f[:, None] - costs) / epsilon, axis=0)
        if symmetric:
            f_next = 0.5 * (f + g)
            shift = f - g
        else:
            f_next = -epsilon * reference_logsumexp(
                log_b[None, :] + (g[None, :] - costs) / epsilon, axis=1)
            shift = f - f_next
        row_violation = float(np.abs(a * np.exp(shift / epsilon) - a).sum())
        trace.append(row_violation)
        if row_violation < tol:
            converged = True
            break
    return f, (f if symmetric else g), iterations, converged, trace


def index_costs(seed, concentration, k=16):
    """Squared integer-index costs and two random distributions on them."""
    rng = np.random.default_rng(seed)
    idx = np.arange(k, dtype=float)
    costs = (idx[:, None] - idx[None, :]) ** 2
    p, q = rng.dirichlet(np.full(k, concentration), size=2)
    return costs, np.log(p), np.log(q)


def solver_instances(kind, seed):
    """(cross, self) Sinkhorn inputs: (costs, log_a, log_b, eps); log_b None on the self term."""
    if kind == "trainer":
        x, y = unit_cloud(seed, rank=6 + seed % 8), unit_cloud(seed + 50, rank=6 + seed % 5)
        log_w = np.log(x.weights)
        return [(ot.squared_distances(x.points, y.points), log_w, log_w, 0.12 ** 2),
                (ot.squared_distances(x.points, x.points), log_w, None, 0.12 ** 2)]
    if kind == "acceptance_2":
        rng = np.random.default_rng(20260808 + seed)
        n = int(rng.integers(2, 9))
        x, y = rng.normal(0, 1, (n, 2)), rng.normal(2.0, 1, (n, 2))
        log_w = np.full(n, -math.log(n))
        return [(ot.squared_distances(x, y), log_w, log_w, 1e-3),
                (ot.squared_distances(x, x), log_w, None, 1e-3)]
    costs, log_p, log_q = index_costs(seed, 1.0)
    return [(costs, log_p, log_q, 1e-3), (costs, log_p, None, 1e-3)]


def assert_matches_reference(costs, log_a, eps):
    # The self term starts at the target eps from f = 0, as the solver runs it.
    f, g, iterations, converged, trace = ot._scaling_loop(costs, log_a, eps)
    # The reference runs in extended precision from the same start: in
    # float64 its own roundoff (one ulp of |f| in each exponent (f - C)/eps)
    # can move the iteration where the violation crosses tol.
    wide = np.longdouble
    rf, rg, r_iterations, r_converged, r_trace = reference_potentials(
        costs.astype(wide), log_a.astype(wide), None, eps,
        np.zeros(costs.shape[0], dtype=wide), ot.MAX_ITER, ot.TOL)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
    assert (iterations, converged) == (r_iterations, r_converged)
    assert len(trace) == len(r_trace)
    # Each float64 exponent (2*f0 - C)/eps carries up to one ulp of max C
    # over eps, so the row sums a * ratio (total mass 1 + violation) carry a
    # roundoff floor of that size: 6e-14 on the trainer's clouds, 5e-11 on
    # index costs at eps 1e-3.
    floor = max(1e-12, 4 * np.finfo(float).eps * float(costs.max()) / eps)
    np.testing.assert_allclose(trace, r_trace, rtol=floor, atol=floor)
    assert plan_value(costs, log_a, log_a, f, g, eps) == pytest.approx(
        float(plan_value(costs, log_a, log_a, rf, rg, eps)), rel=1e-10)


def assert_honest_cross_solve(costs, log_a, log_b, eps):
    # The flag follows the trace, and the trace ends at the row violation of
    # the plan (f, g) returned, up to the roundoff floor of its exponents.
    f, g, _, converged, trace = ot._sinkhorn_potentials(costs, log_a, log_b, eps)
    assert converged == (trace[-1] < ot.TOL)
    plan = plan_of(costs, log_a, log_b, f, g, eps)
    floor = max(1e-12, 4 * np.finfo(float).eps * float(costs.max()) / eps)
    assert trace[-1] == pytest.approx(np.abs(plan.sum(axis=1) - np.exp(log_a)).sum(),
                                      rel=floor, abs=floor)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the log-domain reference needs a float wider than float64")
class TestAbsorbedScaling:
    @pytest.mark.parametrize("kind", ["trainer", "acceptance_2", "index"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_log_domain_reference(self, kind, seed):
        costs, log_a, _, eps = solver_instances(kind, seed)[1]
        assert_matches_reference(costs, log_a, eps)

    @pytest.mark.parametrize("scaling", [0.5, 0.05])
    def test_index_costs_absorb_before_overflow(self, monkeypatch, scaling):
        # Peaked index distributions at eps 1e-3, under raised floating-point
        # errors: the self solves match the reference, and the cross solves,
        # which start Newton behind coarse eps steps, report the violation
        # of the plan they return.
        monkeypatch.setattr(ot, "SCALING", scaling)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for seed in range(30):
                costs, log_p, log_q = index_costs(seed, 0.1)
                assert_honest_cross_solve(costs, log_p, log_q, 1e-3)
                assert_matches_reference(costs, log_p, 1e-3)

    def test_weight_that_could_push_a_scaling_out_of_range_has_converged(self):
        # A first step from f = 0 leaves the light point's potential at c/2
        # and its next T(f) near c, so v = exp((T(f) - f0)/eps) would pass
        # 1e100 once c/(2*eps) > ln(1e100) = 230.3, which needs a weight
        # below exp(-1.5*c/eps).  Such a weight adds less than itself to the
        # row violation: the solve converges at its log-domain first step.
        costs = np.array([[0.0, 465.0], [465.0, 0.0]])
        log_a = np.array([math.log1p(-math.exp(-705.0)), -705.0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            f, _, iterations, converged, _ = ot._scaling_loop(costs, log_a, 1.0)
            assert_matches_reference(costs, log_a, 1.0)
        assert (iterations, converged) == (1, True)
        assert np.all(np.isfinite(f))

    def test_normal_clouds_after_a_coarse_eps_step(self, monkeypatch):
        # A 20-fold last eps step into eps 4e-4 for the cross solves; the
        # self solves start there from f = 0.
        monkeypatch.setattr(ot, "SCALING", 0.05)
        rng = np.random.default_rng(11)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for _ in range(6):
                n, m = rng.integers(2, 12, size=2)
                x, y = rng.normal(0, 1, (n, 3)), rng.normal(1.0, 1, (m, 3))
                log_a, log_b = np.full(n, -math.log(n)), np.full(m, -math.log(m))
                assert_honest_cross_solve(ot.squared_distances(x, y), log_a, log_b, 4e-4)
                assert_matches_reference(ot.squared_distances(x, x), log_a, 4e-4)


class TestNewton:
    @pytest.mark.parametrize("seed", range(8))
    def test_trainer_clouds_converge_within_40_iterations(self, seed):
        # The cross solves take 18-21 iterations, levels included.
        for costs, log_a, log_b, eps in solver_instances("trainer", seed):
            _, _, iterations, converged, trace = ot._sinkhorn_potentials(costs, log_a, log_b, eps)
            assert converged and iterations <= 25
            assert trace[-1] < ot.TOL

    @pytest.mark.parametrize("seed", [15, 32, 47, 64])
    def test_converges_past_the_roundoff_of_the_dual_value(self, monkeypatch, seed):
        # At tol 1e-12 the last steps raise the dual value by less than its
        # roundoff.  Without the line search's allowance for it seeds 47 and
        # 64 end at a failed step (violations 2.5e-12 and 1.5e-12), and
        # seeds 15 and 32 take one and two more iterations.
        monkeypatch.setattr(ot, "TOL", 1e-12)
        costs, log_a, log_b, eps = solver_instances("trainer", seed)[0]
        _, _, iterations, converged, _ = ot._sinkhorn_potentials(costs, log_a, log_b, eps)
        assert converged and iterations <= 40

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 4e-4])
    def test_unequal_size_normal_clouds_converge(self, eps):
        # Each level starts Newton from the last level's solution, so these
        # all converge, in at most 52 iterations.
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, m = rng.integers(2, 12, size=2)
            x, y = rng.normal(0, 1, (n, 3)), rng.normal(1.0, 1, (m, 3))
            _, _, iterations, converged, _ = ot._sinkhorn_potentials(
                ot.squared_distances(x, y), np.full(n, -math.log(n)), np.full(m, -math.log(m)),
                eps)
            assert converged and iterations <= 60

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the log-domain reference needs a float wider than float64")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_converged_extended_precision_reference(self, seed):
        # The reference is the log-domain loop from f = 0, run to a violation
        # of 1e-12: 2 382 and 2 841 iterations on these pairs.
        costs, log_a, log_b, eps = solver_instances("trainer", seed)[0]
        f, g, _, converged, _ = ot._sinkhorn_potentials(costs, log_a, log_b, eps)
        assert converged
        wide = np.longdouble
        rf, rg, _, r_converged, _ = reference_potentials(
            costs.astype(wide), log_a.astype(wide), log_b.astype(wide), eps,
            np.zeros(costs.shape[0], dtype=wide), 20_000, 1e-12)
        assert r_converged
        reference = plan_value(costs.astype(wide), log_a.astype(wide), log_b.astype(wide),
                               rf, rg, eps)
        assert plan_value(costs, log_a, log_b, f, g, eps) == pytest.approx(
            float(reference), rel=1e-10)

    @pytest.mark.parametrize("kind", ["acceptance_2", "index"])
    def test_no_warning_and_honest_flags(self, kind):
        for seed in range(8):
            for costs, log_a, log_b, eps in solver_instances(kind, seed):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with np.errstate(over="raise", divide="raise", invalid="raise"):
                        f, g, iterations, converged, trace = ot._sinkhorn_potentials(
                            costs, log_a, log_b, eps)
                        log_b = log_a if log_b is None else log_b
                        value = plan_value(costs, log_a, log_b, f, g, eps)
                        plan = plan_of(costs, log_a, log_b, f, g, eps)
                assert isinstance(converged, bool) and iterations <= ot.MAX_ITER
                assert converged == (trace[-1] < ot.TOL)
                assert math.isfinite(value)
                floor = max(1e-12, 4 * np.finfo(float).eps * float(costs.max()) / eps)
                recomputed = np.abs(plan.sum(axis=1) - np.exp(log_a)).sum()
                assert trace[-1] == pytest.approx(recomputed, rel=floor, abs=floor)

    @pytest.mark.parametrize("seed", range(4))
    def test_failed_first_step_ends_the_solve(self, seed):
        # On integer-index costs at eps 1e-3 (even seeds 0-6) the first
        # Newton step at the target eps runs out of halvings: the solve ends
        # unconverged at the f the coarser levels left, with one iteration
        # at the target eps, and reports the violation of the plan it returns.
        costs, log_p, log_q, eps = solver_instances("index", 2 * seed)[0]
        f, g, iterations, converged, trace = ot._sinkhorn_potentials(costs, log_p, log_q, eps)
        assert (converged, len(trace)) == (False, 1)
        p, q = np.exp(log_p), np.exp(log_q)
        point = ot._dual_point(costs, log_p, p, q, eps, f)
        assert ot._newton_step(costs, log_p, p, q, eps, f, point,
                               ot._NEWTON_RIDGE * p.max(), float(costs.max())) is None
        recomputed = np.abs(plan_of(costs, log_p, log_q, f, g, eps).sum(axis=1)
                            - np.exp(log_p)).sum()
        # The plan's exponents (f + g - C)/eps carry one ulp of max C over eps.
        floor = 4 * np.finfo(float).eps * float(costs.max()) / eps
        assert trace[-1] == pytest.approx(recomputed, rel=floor, abs=floor)


    def test_stagnant_cross_solve_spends_max_iter_unconverged(self):
        # Dirichlet(0.1) index weights at eps 1e-3: the violation sits near
        # 1.75e-8 at the target eps, no Newton step fails and the last 200
        # iterations bring no 1e-3 relative gain.  The solve runs until
        # MAX_ITER is spent and ends unconverged.
        costs, log_p, log_q = index_costs(5, 0.1)
        _, _, iterations, converged, trace = ot._sinkhorn_potentials(costs, log_p, log_q, 1e-3)
        assert not converged and trace[-1] > ot.TOL
        assert 200 < len(trace) <= iterations == ot.MAX_ITER
        assert min(trace[-200:]) >= min(trace[:-200]) * (1.0 - 1e-3)

    @pytest.mark.parametrize("failure", ["singular", "descent", "not_finite"])
    def test_failed_newton_direction_ends_unconverged(self, monkeypatch, failure):
        # Every Newton step fails before its line search: a singular solve
        # raises, a descent direction or a NaN one does not ascend.  No
        # trial point is evaluated, each level is left at once, and the
        # solve ends at the target eps with the f = 0 it started from,
        # flagged by its own trace.
        solves, trial_points = [], []
        dual_point = ot._dual_point

        def failing_solve(hessian, rhs):
            solves.append(failure)
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return -rhs if failure == "descent" else np.full_like(rhs, math.nan)

        def recorded_dual_point(costs, log_a, a, b, epsilon, f):
            trial_points.append(np.any(f != 0.0))
            return dual_point(costs, log_a, a, b, epsilon, f)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        monkeypatch.setattr(ot, "_dual_point", recorded_dual_point)
        costs, log_a, log_b, eps = solver_instances("trainer", 0)[0]
        f, _, _, converged, trace = ot._sinkhorn_potentials(costs, log_a, log_b, eps)
        assert solves and not any(trial_points)
        assert len(trace) == 1 and np.all(f == 0.0)
        assert converged == (trace[-1] < ot.TOL)
        a, b = unit_cloud(0), unit_cloud(50)
        assert not ot.sinkhorn_divergence_with_grad(a, b, eps)[2]["converged"]


class TestSinkhornDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(5)
        m = random_cloud(rng, 5)
        assert ot.sinkhorn_divergence_with_grad(m, m, 1e-2)[0] <= 1e-9

    def test_same_measure_is_exactly_zero(self):
        # b is a: all three terms are the same self solve, so the value and
        # the gradient cancel exactly.
        for m in (random_cloud(np.random.default_rng(5), 5), unit_cloud(3)):
            value, grad, stats = ot.sinkhorn_divergence_with_grad(m, m, 0.12 ** 2)
            assert value == 0.0
            assert grad.shape == m.points.shape and np.all(grad == 0.0)
            assert stats["converged"]

    def test_three_entropic_ot_calls(self, monkeypatch):
        # perfbench's tracer reads ot.entropic_ot.iters and converged_ratio
        # from these calls: the cross term and the two self terms.
        calls = []
        solve = ot.entropic_ot

        def counted(a, b, epsilon):
            calls.append((a, b))
            return solve(a, b, epsilon)

        monkeypatch.setattr(ot, "entropic_ot", counted)
        rng = np.random.default_rng(11)
        a, b = random_cloud(rng, 5), random_cloud(rng, 4, offset=1.0)
        for first, second in ((a, b), (b, a), (a, a)):
            calls.clear()
            ot.sinkhorn_divergence_with_grad(first, second, 1e-2)
            assert len(calls) == 3
            pairs = {(id(x), id(y)) for x, y in calls}
            assert {(id(first), id(first)), (id(second), id(second))} <= pairs

    def test_singleton_distance(self):
        a, b = EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[2.0]])
        assert ot.sinkhorn_divergence_with_grad(a, b, 1e-2)[0] == pytest.approx(4.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_symmetry(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_cloud(rng, n), random_cloud(rng, n, offset=1.0)
        sab = ot.sinkhorn_divergence_with_grad(a, b, 1e-2)[0]
        sba = ot.sinkhorn_divergence_with_grad(b, a, 1e-2)[0]
        assert abs(sab - sba) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_small_eps_matches_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_cloud(rng, n)
        b = random_cloud(rng, n, offset=2.0)
        exact = exact_w2_small(a, b)
        approx = ot.sinkhorn_divergence_with_grad(a, b, 1e-3)[0]
        assert approx == pytest.approx(exact, rel=5e-3)

    def test_position_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        a = random_cloud(rng, 4)
        b = random_cloud(rng, 4, offset=1.0)
        _, grad, _ = ot.sinkhorn_divergence_with_grad(a, b, 1e-2)
        h = 1e-5
        for i in range(a.size):
            for d in range(a.points.shape[1]):
                pts = a.points.copy()
                pts[i, d] += h
                up = ot.sinkhorn_divergence_with_grad(EmpiricalMeasure(pts), b, 1e-2)[0]
                pts[i, d] -= 2 * h
                dn = ot.sinkhorn_divergence_with_grad(EmpiricalMeasure(pts), b, 1e-2)[0]
                fd = (up - dn) / (2 * h)
                assert grad[i, d] == pytest.approx(fd, rel=1e-3, abs=1e-6)


class TestRegulariser:
    def test_identical_measures(self):
        rng = np.random.default_rng(7)
        m = random_cloud(rng, 4)
        value = ot.sinkhorn_divergence_with_grad(m, m, 0.12 ** 2)[0]
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_unit_singletons(self):
        a = EmpiricalMeasure([[1.0, 0.0]])
        b = EmpiricalMeasure([[0.0, 1.0]])
        # Forced plan: S_eps = |x - y|^2 = 2.
        value = ot.sinkhorn_divergence_with_grad(a, b, 0.12 ** 2)[0]
        assert value == pytest.approx(2.0, abs=1e-7)

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(10)
        m = random_cloud(rng, 30)
        s1 = ot.subsample_indices(m.size, 10, 123)
        s2 = ot.subsample_indices(m.size, 10, 123)
        assert np.array_equal(s1, s2)
        assert len(np.unique(s1)) == 10


class TestOutputSpaceDiag:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        assert ot.output_space_ot_diag(p, p) == 0.0

    def test_point_masses(self):
        p = np.zeros(10); p[3] = 1.0
        q = np.zeros(10); q[7] = 1.0
        assert ot.output_space_ot_diag(p, q) == 16.0

    def test_shift_by_two(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.5, 0.5])
        assert ot.output_space_ot_diag(p, q) == 4.0

    def test_point_mass_moved_by_k(self):
        for k in range(12):
            p, q = np.zeros(12), np.zeros(12)
            p[0], q[k] = 1.0, 1.0
            assert ot.output_space_ot_diag(p, q) == float(k * k)
            assert ot.output_space_ot_diag(q, p) == float(k * k)

    def test_matches_the_exact_oracle_on_integer_clouds(self):
        # A uniform cloud of n integer points over 12 tokens is the histogram
        # counts / n; on equal-size uniform clouds a permutation is optimal.
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            a, b = rng.integers(0, 12, n), rng.integers(0, 12, n)
            p, q = np.bincount(a, minlength=12) / n, np.bincount(b, minlength=12) / n
            exact = exact_w2_small(EmpiricalMeasure(a[:, None].astype(float)),
                                   EmpiricalMeasure(b[:, None].astype(float)))
            assert abs(ot.output_space_ot_diag(p, q) - exact) <= 1e-12

    def test_matches_the_exact_oracle_on_20_tokens(self):
        # Two clouds of nine points that together fall on 17 or 18 of 20
        # tokens.
        rng = np.random.default_rng(1)
        for _ in range(4):
            a, b = rng.choice(20, size=(2, 9))
            while len({*a.tolist(), *b.tolist()}) < 17:
                a, b = rng.choice(20, size=(2, 9))
            p, q = np.bincount(a, minlength=20) / 9, np.bincount(b, minlength=20) / 9
            exact = exact_w2_small(EmpiricalMeasure(a[:, None].astype(float)),
                                   EmpiricalMeasure(b[:, None].astype(float)))
            assert abs(ot.output_space_ot_diag(p, q) - exact) <= 1e-12

    def test_matches_sorted_matching_on_17_tokens_a_side(self):
        # Between equal-size uniform clouds on a line the sorted matching is
        # optimal.  Each cloud here falls on at least 17 of 20 tokens, so no
        # side's mass sits on its top 16 alone.
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = (np.concatenate([rng.permutation(20)[:17], rng.integers(0, 20, 23)])
                    for _ in range(2))
            p, q = np.bincount(a, minlength=20) / 40, np.bincount(b, minlength=20) / 40
            exact = float(np.mean((np.sort(a) - np.sort(b)) ** 2))
            assert ot.output_space_ot_diag(p, q) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_symmetric(self):
        for seed in range(20):
            p, q = np.random.default_rng(seed).dirichlet(np.ones(16), size=2)
            value = ot.output_space_ot_diag(p, q)
            assert math.isfinite(value) and value > 0.0
            assert ot.output_space_ot_diag(q, p) == value

    def test_monotone_plan_moves_every_token(self):
        # The monotone plan of p and q on all six tokens sends 0.1 from 0 to
        # 2, 0.1 from 0 to 3, 0.4 from 0 to 4, 0.2 from 1 to 5, 0.1 from 2 to
        # 5 and 0.1 from 3 to 5.  Tokens 2 and 3 are outside both sides' top
        # two tokens; cut to {0, 1, 4, 5} and renormalised, the value would
        # be 18.25.
        p = np.array([0.6, 0.2, 0.1, 0.1, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.1, 0.1, 0.4, 0.4])
        expected = 0.1 * 4 + 0.1 * 9 + 0.4 * 16 + 0.2 * 16 + 0.1 * 9 + 0.1 * 4
        assert ot.output_space_ot_diag(p, q) == pytest.approx(expected, abs=1e-12)

    def test_equals_the_unique_and_union1d_version(self):
        # Sparse and tied distributions on 2-20 tokens: zero masses repeat
        # cumulative sums, so the breakpoints deduplicate.
        rng = np.random.default_rng(3)
        for case in range(600):
            v = int(rng.integers(2, 21))
            p, q = rng.dirichlet(np.full(v, rng.choice([0.05, 0.5, 5.0])), size=2)
            if case % 3 == 0:
                p = np.where(rng.random(v) < 0.4, 0.0, np.round(p, 1) + 0.1)
                p[rng.integers(v)] += 1.0
                p /= p.sum()
            assert ot.output_space_ot_diag(p, q) == output_space_ot_diag_with_unique(p, q), case

    def test_supports_of_different_sizes_rejected(self):
        with pytest.raises(ValidationError, match="distributions must share a vocabulary"):
            ot.output_space_ot_diag([0.5, 0.5], [0.25, 0.25, 0.5])


def output_space_ot_diag_with_unique(p, q) -> float:
    """ot.output_space_ot_diag as it was written with np.unique and np.union1d,
    on the full support."""
    union = np.unique(np.concatenate([np.argsort(-p, kind="stable"),
                                      np.argsort(-q, kind="stable")]))
    cdf_p = np.cumsum(p[union] / p[union].sum())
    cdf_q = np.cumsum(q[union] / q[union].sum())
    breaks = np.union1d(cdf_p, cdf_q)
    widths = np.diff(breaks, prepend=0.0)
    mids = breaks - 0.5 * widths
    x_p = union[np.searchsorted(cdf_p[:-1], mids)]
    x_q = union[np.searchsorted(cdf_q[:-1], mids)]
    return float(np.sum(widths * (x_p - x_q) ** 2))
