"""Optimal transport: exact oracle, Sinkhorn solver, divergence, diagnostics."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import UnsupportedInstanceError, ValidationError
from geoloop import ot
from geoloop.rep_metrics import EmpiricalMeasure


def brute_force_w2(xa, xb):
    """Independent permutation-enumeration oracle (kept separate from ot.py)."""
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
        assert ot.exact_w2_small(m, m) == pytest.approx(0.0)

    def test_singletons(self):
        a, b = EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[3.0]])
        assert ot.exact_w2_small(a, b) == pytest.approx(9.0)

    def test_interleaved_points_prefer_monotone(self):
        a = EmpiricalMeasure([[0.0], [2.0]])
        b = EmpiricalMeasure([[1.0], [3.0]])
        assert ot.exact_w2_small(a, b) == pytest.approx(1.0)

    def test_size_limits(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UnsupportedInstanceError):
            ot.exact_w2_small(random_cloud(rng, 11), random_cloud(rng, 11))
        with pytest.raises(UnsupportedInstanceError):
            ot.exact_w2_small(random_cloud(rng, 3), random_cloud(rng, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_matches_independent_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_cloud(rng, n), random_cloud(rng, n)
        assert ot.exact_w2_small(a, b) == pytest.approx(
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

    def test_violation_trace_ends_at_raw_plan_violation(self):
        # The trace's last entry must be the violation of the plan returned,
        # whether the solve converged, hit max_iter among the Newton steps
        # (29 of the 30 iterations the trainer-like pair takes to converge) or
        # in the scaling loop after a failed Newton step, or stopped on the
        # plateau rule.
        rng = np.random.default_rng(8)
        even = random_cloud(rng, 6), random_cloud(rng, 6, offset=1.0)
        rng = np.random.default_rng(8)
        uneven = random_cloud(rng, 7), random_cloud(rng, 5, offset=1.0)
        trainer = unit_cloud(0), unit_cloud(50)
        for (a, b), eps, max_iter, converged in ((even, 1e-2, 10_000, True),
                                                 (trainer, 0.12 ** 2, 29, False),
                                                 (uneven, 1e-2, 60, False),
                                                 (uneven, 1e-2, 10_000, False)):
            res = ot.entropic_ot(a, b, eps, max_iter=max_iter)
            assert res["converged"] is converged
            recomputed = np.abs(res["raw_plan"].sum(axis=1) - a.weights).sum()
            assert res["violation_trace"][-1] == pytest.approx(recomputed, abs=1e-12)

    def test_log_domain_stability_small_eps(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 1, (6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        m1 = EmpiricalMeasure(pts, normalised=True)
        pts2 = rng.normal(0, 1, (6, 3))
        pts2 /= np.linalg.norm(pts2, axis=1, keepdims=True)
        m2 = EmpiricalMeasure(pts2, normalised=True)
        res = ot.entropic_ot(m1, m2, 1e-4)
        assert math.isfinite(res["value"])
        assert np.all(np.isfinite(res["raw_plan"]))


def unit_cloud(seed, n=32, d=32, rank=6):
    """Unit-norm points on a rank-`rank` subspace, like the trainer's hidden clouds."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 1, (n, rank)) @ rng.normal(0, 1, (rank, d))
    return EmpiricalMeasure(pts / np.linalg.norm(pts, axis=1, keepdims=True), normalised=True)


def plan_value(costs, log_a, log_b, f, g, eps):
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / eps
    plan = np.exp(log_plan)
    return float(np.sum(plan * costs) + eps * np.sum(plan * (log_plan - log_a[:, None] - log_b[None, :])))


class TestSymmetricSelfTerm:
    EPS = 0.12 ** 2

    def test_converges_fast_and_matches_long_alternating_solve(self):
        # The alternating scaling loop has not converged on this cloud at 500
        # iterations; it does by 20 000.
        m = unit_cloud(1)
        costs = ot.squared_distances(m.points, m.points)
        log_w = np.log(m.weights)
        f, g, iterations, converged, _ = ot._sinkhorn_potentials(
            costs, log_w, None, self.EPS, ot.DEFAULT_SCALING, ot.DEFAULT_MAX_ITER, ot.DEFAULT_TOL)
        assert converged
        assert iterations <= 100
        start, levels = ot._eps_ladder(costs, log_w, log_w, self.EPS, ot.DEFAULT_SCALING, 20_000)
        rf, rg, _, r_converged, _ = ot._scaling_loop(
            costs, log_w, log_w, self.EPS, start, 20_000 - levels, ot.DEFAULT_TOL)
        assert r_converged
        assert plan_value(costs, log_w, log_w, f, g, self.EPS) == pytest.approx(
            plan_value(costs, log_w, log_w, rf, rg, self.EPS), rel=1e-6)

    def test_peaked_plans_keep_a_finite_trace(self):
        # After a 20-fold eps step the first target-eps plan of a peaked self
        # solve has row sums past the float range (on 20 of these 40, up to
        # e^1571): Dirichlet(0.05) weights over 16 integer indices, zero
        # weights dropped.
        idx = np.arange(16, dtype=float)
        costs = (idx[:, None] - idx[None, :]) ** 2
        with np.errstate(over="raise"):
            for seed in range(20):
                for p in np.random.default_rng(seed).dirichlet(np.full(16, 0.05), size=2):
                    keep = p > 0
                    _, _, _, converged, trace = ot._sinkhorn_potentials(
                        costs[np.ix_(keep, keep)], np.log(p[keep]), None, 1e-4, 0.05,
                        ot.DEFAULT_MAX_ITER, ot.DEFAULT_TOL)
                    assert converged
                    assert np.all(np.isfinite(trace))

    def test_entropic_ot_self_plan_is_symmetric(self):
        for m in (unit_cloud(2, n=9, d=4, rank=2), unit_cloud(3)):
            res = ot.entropic_ot(m, m, self.EPS, max_iter=500)
            assert res["converged"]
            assert np.array_equal(res["raw_plan"], res["raw_plan"].T)


def reference_logsumexp(arr, axis):
    peak = arr.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak.squeeze(axis) + np.log(np.exp(arr - peak).sum(axis=axis))


def reference_potentials(costs, log_a, log_b, epsilon, f, max_iter, tol):
    """The log-domain Sinkhorn loop at the target eps from f, two log-sum-exps per iteration.

    Kept as the reference for ot._scaling_loop, which runs the same
    iterations in absorbed scaling form; same arguments and results.
    """
    symmetric = log_b is None
    a = np.exp(log_a)
    f_next = f
    iterations = 0
    trace = []
    converged = False
    best = math.inf
    stalled = 0
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
        if row_violation < best * (1.0 - 1e-3):
            best = row_violation
            stalled = 0
        else:
            stalled += 1
            if stalled >= 200:
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
    """(cross, self) Sinkhorn inputs: (costs, log_a, log_b, eps, max_iter); log_b None on the self term."""
    if kind == "trainer":
        x, y = unit_cloud(seed, rank=6 + seed % 8), unit_cloud(seed + 50, rank=6 + seed % 5)
        log_w = np.log(x.weights)
        return [(ot.squared_distances(x.points, y.points), log_w, log_w, 0.12 ** 2, 500),
                (ot.squared_distances(x.points, x.points), log_w, None, 0.12 ** 2, 500)]
    if kind == "acceptance_2":
        rng = np.random.default_rng(20260808 + seed)
        n = int(rng.integers(2, 9))
        x, y = rng.normal(0, 1, (n, 2)), rng.normal(2.0, 1, (n, 2))
        log_w = np.full(n, -math.log(n))
        return [(ot.squared_distances(x, y), log_w, log_w, 1e-3, ot.DEFAULT_MAX_ITER),
                (ot.squared_distances(x, x), log_w, None, 1e-3, ot.DEFAULT_MAX_ITER)]
    costs, log_p, log_q = index_costs(seed, 1.0)
    return [(costs, log_p, log_q, 1e-3, ot.DEFAULT_MAX_ITER),
            (costs, log_p, None, 1e-3, ot.DEFAULT_MAX_ITER)]


def assert_matches_reference(costs, log_a, log_b, eps, scaling, max_iter):
    start, levels = ot._eps_ladder(costs, log_a, log_b, eps, scaling, max_iter)
    f, g, iterations, converged, trace = ot._scaling_loop(
        costs, log_a, log_b, eps, start, max_iter - levels, ot.DEFAULT_TOL)
    # The reference runs in extended precision from the same start: in
    # float64 its own roundoff (one ulp of |f| in each exponent (f - C)/eps)
    # reaches 1e-11 in the violation on index costs at eps 1e-3, and on slow
    # solves moves the iteration where the violation crosses tol (4845
    # against 4846 in extended precision and in the absorbed loop, on
    # acceptance 2's first instance).
    wide = np.longdouble
    rf, rg, r_iterations, r_converged, r_trace = reference_potentials(
        costs.astype(wide), log_a.astype(wide), None if log_b is None else log_b.astype(wide),
        eps, start.astype(wide), max_iter - levels, ot.DEFAULT_TOL)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
    assert (iterations, converged) == (r_iterations, r_converged)
    assert len(trace) == len(r_trace)
    # Each float64 exponent (f0 + g0 - C)/eps carries up to one ulp of max C
    # over eps, so the row sums a * ratio (total mass 1 + violation) carry a
    # roundoff floor of that size: 6e-14 on the trainer's clouds, 5e-11 on
    # index costs at eps 1e-3.
    floor = max(1e-12, 4 * np.finfo(float).eps * float(costs.max()) / eps)
    np.testing.assert_allclose(trace, r_trace, rtol=floor, atol=floor)
    log_b = log_a if log_b is None else log_b
    assert plan_value(costs, log_a, log_b, f, g, eps) == pytest.approx(
        float(plan_value(costs, log_a, log_b, rf, rg, eps)), rel=1e-10)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the log-domain reference needs a float wider than float64")
class TestAbsorbedScaling:
    @pytest.mark.parametrize("kind", ["trainer", "acceptance_2", "index"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_log_domain_reference(self, kind, seed):
        for instance in solver_instances(kind, seed):
            costs, log_a, log_b, eps, max_iter = instance
            assert_matches_reference(costs, log_a, log_b, eps, ot.DEFAULT_SCALING, max_iter)

    @pytest.mark.parametrize("scaling", [0.5, 0.05])
    def test_index_costs_absorb_before_overflow(self, scaling):
        # On peaked index distributions after coarse eps steps the scalings
        # run past the float range within the target iterations (the cross
        # solves at seeds 15 and 27 with scaling 0.5, most cross solves with
        # 0.05): without the range check the kernel products overflow.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for seed in range(30):
                costs, log_p, log_q = index_costs(seed, 0.1)
                assert_matches_reference(costs, log_p, log_q, 1e-3, scaling, ot.DEFAULT_MAX_ITER)
                assert_matches_reference(costs, log_p, None, 1e-3, scaling, ot.DEFAULT_MAX_ITER)

    def test_normal_clouds_after_a_coarse_eps_step(self):
        # A 20-fold last eps step into eps 4e-4: first row violations up to 4e4.
        rng = np.random.default_rng(11)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for _ in range(6):
                n, m = rng.integers(2, 12, size=2)
                x, y = rng.normal(0, 1, (n, 3)), rng.normal(1.0, 1, (m, 3))
                log_a, log_b = np.full(n, -math.log(n)), np.full(m, -math.log(m))
                assert_matches_reference(ot.squared_distances(x, y), log_a, log_b, 4e-4, 0.05,
                                         ot.DEFAULT_MAX_ITER)
                assert_matches_reference(ot.squared_distances(x, x), log_a, None, 4e-4, 0.05,
                                         ot.DEFAULT_MAX_ITER)


class TestNewton:
    @pytest.mark.parametrize("seed", range(8))
    def test_trainer_clouds_converge_within_40_iterations(self, seed):
        # Seeds 0, 3 and 5 need a half step in the line search.
        for costs, log_a, log_b, eps, max_iter in solver_instances("trainer", seed):
            _, _, iterations, converged, trace = ot._sinkhorn_potentials(
                costs, log_a, log_b, eps, ot.DEFAULT_SCALING, max_iter, ot.DEFAULT_TOL)
            assert converged and iterations <= 40
            assert trace[-1] < ot.DEFAULT_TOL

    @pytest.mark.parametrize("seed", [15, 32])
    def test_converges_past_the_roundoff_of_the_dual_value(self, seed):
        # At tol 1e-12 the last steps raise the dual value by less than its
        # roundoff.  Without the line search's allowance for it these solves
        # hand over to the scaling loop (105 iterations on seed 15) or stop
        # at max_iter (seed 32).
        costs, log_a, log_b, eps, max_iter = solver_instances("trainer", seed)[0]
        _, _, iterations, converged, _ = ot._sinkhorn_potentials(
            costs, log_a, log_b, eps, ot.DEFAULT_SCALING, max_iter, 1e-12)
        assert converged and iterations <= 40

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the log-domain reference needs a float wider than float64")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_converged_extended_precision_reference(self, seed):
        # The reference is the log-domain loop from the ladder's f, run to a
        # violation of 1e-12: 2 345 and 2 506 iterations on these pairs, where
        # seeds 2-7 take 4 274 to over 20 000 iterations to reach even 1e-9.
        costs, log_a, log_b, eps, max_iter = solver_instances("trainer", seed)[0]
        f, g, _, converged, _ = ot._sinkhorn_potentials(
            costs, log_a, log_b, eps, ot.DEFAULT_SCALING, max_iter, ot.DEFAULT_TOL)
        assert converged
        start, _ = ot._eps_ladder(costs, log_a, log_b, eps, ot.DEFAULT_SCALING, max_iter)
        wide = np.longdouble
        rf, rg, _, r_converged, _ = reference_potentials(
            costs.astype(wide), log_a.astype(wide), log_b.astype(wide), eps,
            start.astype(wide), 20_000, 1e-12)
        assert r_converged
        reference = plan_value(costs.astype(wide), log_a.astype(wide), log_b.astype(wide),
                               rf, rg, eps)
        assert plan_value(costs, log_a, log_b, f, g, eps) == pytest.approx(
            float(reference), rel=1e-10)

    @pytest.mark.parametrize("kind", ["acceptance_2", "index"])
    def test_no_warning_and_honest_flags(self, kind):
        for seed in range(8):
            for costs, log_a, log_b, eps, max_iter in solver_instances(kind, seed):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with np.errstate(over="raise", divide="raise", invalid="raise"):
                        value, plan, iterations, converged, trace = ot._solve(
                            costs, log_a, log_b, eps, max_iter=max_iter)
                assert isinstance(converged, bool) and iterations <= max_iter
                assert converged == (trace[-1] < ot.DEFAULT_TOL)
                assert math.isfinite(value)
                floor = max(1e-12, 4 * np.finfo(float).eps * float(costs.max()) / eps)
                recomputed = np.abs(plan.sum(axis=1) - np.exp(log_a)).sum()
                assert trace[-1] == pytest.approx(recomputed, rel=floor, abs=floor)

    @pytest.mark.parametrize("seed", range(4))
    def test_failed_first_step_ends_as_the_scaling_loop(self, seed):
        # On integer-index costs at eps 1e-3 the first Newton step runs out of
        # halvings: the solve is the scaling loop from the ladder's f, bit for
        # bit, as before Newton steps were added.
        costs, log_p, log_q, eps, max_iter = solver_instances("index", seed)[0]
        result = ot._sinkhorn_potentials(costs, log_p, log_q, eps, ot.DEFAULT_SCALING,
                                         max_iter, ot.DEFAULT_TOL)
        start, levels = ot._eps_ladder(costs, log_p, log_q, eps, ot.DEFAULT_SCALING, max_iter)
        f, g, iterations, converged, trace = ot._scaling_loop(
            costs, log_p, log_q, eps, start, max_iter - levels, ot.DEFAULT_TOL)
        assert np.array_equal(result[0], f) and np.array_equal(result[1], g)
        assert result[2:] == (levels + iterations, converged, trace)


class TestSinkhornDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(5)
        m = random_cloud(rng, 5)
        assert ot.sinkhorn_divergence_with_grad(m, m, 1e-2)[0] <= 1e-9

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
        exact = ot.exact_w2_small(a, b)
        approx = ot.sinkhorn_divergence_with_grad(a, b, 1e-3)[0]
        assert approx == pytest.approx(exact, rel=5e-3)

    def test_position_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        a = random_cloud(rng, 4)
        b = random_cloud(rng, 4, offset=1.0)
        _, grad, _ = ot.sinkhorn_divergence_with_grad(a, b, 1e-2)
        h = 1e-5
        for i in range(a.size):
            for d in range(a.dim):
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
        a = EmpiricalMeasure([[1.0, 0.0]], normalised=True)
        b = EmpiricalMeasure([[0.0, 1.0]], normalised=True)
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
        assert ot.output_space_ot_diag(p, p, 4) == 0.0

    def test_point_masses(self):
        p = np.zeros(10); p[3] = 1.0
        q = np.zeros(10); q[7] = 1.0
        assert ot.output_space_ot_diag(p, q, 4) == 16.0

    def test_shift_by_two(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.5, 0.5])
        assert ot.output_space_ot_diag(p, q, 4) == 4.0

    def test_point_mass_moved_by_k(self):
        for k in range(12):
            p, q = np.zeros(12), np.zeros(12)
            p[0], q[k] = 1.0, 1.0
            assert ot.output_space_ot_diag(p, q, 1) == float(k * k)
            assert ot.output_space_ot_diag(q, p, 12) == float(k * k)

    def test_matches_the_exact_oracle_on_integer_clouds(self):
        # A uniform cloud of n integer points over 12 tokens is the histogram
        # counts / n; on equal-size uniform clouds a permutation is optimal.
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            a, b = rng.integers(0, 12, n), rng.integers(0, 12, n)
            p, q = np.bincount(a, minlength=12) / n, np.bincount(b, minlength=12) / n
            exact = ot.exact_w2_small(EmpiricalMeasure(a[:, None].astype(float)),
                                      EmpiricalMeasure(b[:, None].astype(float)))
            assert abs(ot.output_space_ot_diag(p, q, 12) - exact) <= 1e-12

    def test_symmetric(self):
        for seed in range(20):
            p, q = np.random.default_rng(seed).dirichlet(np.ones(16), size=2)
            value = ot.output_space_ot_diag(p, q, 16)
            assert math.isfinite(value) and value > 0.0
            assert ot.output_space_ot_diag(q, p, 16) == value

    def test_top_k_union_is_renormalised(self):
        # top-2 of p is {0, 1}, of q {4, 5}: the mass on tokens 2 and 3 is
        # dropped and each side is rescaled to 1 on {0, 1, 4, 5}.  Then p is
        # 3/4 at 0 and 1/4 at 1, q is 1/2 at 4 and 1/2 at 5; the monotone
        # plan sends 1/2 from 0 to 4, 1/4 from 0 to 5 and 1/4 from 1 to 5.
        p = np.array([0.6, 0.2, 0.1, 0.1, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.1, 0.1, 0.4, 0.4])
        expected = 0.5 * 16 + 0.25 * 25 + 0.25 * 16
        assert ot.output_space_ot_diag(p, q, 2) == pytest.approx(expected, abs=1e-12)
        assert ot.output_space_ot_diag(p, q, 6) != pytest.approx(expected)

    def test_requires_positive_top_k(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValidationError):
            ot.output_space_ot_diag(p, p, 0)
