"""Entropic optimal transport, debiased Sinkhorn divergence, and W2 on a line.

Primal problem (squared-Euclidean ground cost unless stated otherwise):

    OT_eps(a, b) = min_{pi in Pi(a,b)}  sum_ij pi_ij C_ij + eps * KL(pi || a x b)

solved to an L1 marginal violation below tolerance at the target eps.  A
cross term OT(a, b) gets there by eps-scaling: it solves at a geometrically
decreasing sequence of temperatures (factor `scaling`, default 0.3) from
max(C) down to the target eps, each from the last one's potential.  A self
term OT(a, a) starts at the target eps (below).  The debiased divergence is

    S_eps(a, b) = OT_eps(a, b) - OT_eps(a, a)/2 - OT_eps(b, b)/2,

symmetric, zero at a == b, and converging to W2^2 as eps -> 0.

`squared_distances` builds each cost matrix in Gram form, |x|^2 + |y|^2 -
2<x, y>, as Sinkhorn-divergence codes do (Feydy et al. 2019,
arXiv:1810.08278): one matrix product instead of a difference tensor.  Both
clouds are first translated by one common point, the first of x, so the
roundoff follows the clouds' extent rather than their distance from the
origin.  A self cost matrix takes its squared norms from the Gram diagonal,
so its diagonal is exactly zero, which the self loop relies on.

Every solve goes through `_sinkhorn_potentials`, by one path per term.  At
every temperature the cross term takes Newton steps on its semi-dual
(Brauer, Clason, Lorenz and Wirth 2017, arXiv:1710.06635) with backtracking
on the dual value, to a row violation of 1e-2 at a coarse temperature and
to tolerance at the target; the trainer's 32-point solves take about 20
levels and steps in all.  A step that fails at the target eps (on
near-deterministic plans, e.g. integer-index costs at eps 1e-3) ends the
solve, flagged unconverged.  The self terms OT(a, a) run the averaged
symmetric update f <- (f + T_eps(f))/2 on a single potential (Feydy et al.
2019), which needs no annealing: from f = 0 at the target eps it converges
in a few dozen iterations at most.  After one log-domain iteration it runs
in absorbed scaling form (Schmitzer 2019, arXiv:1610.06519): f = f0 +
eps*log(u) against the Gibbs kernel K = exp((2*f0 - C)/eps), u <- sqrt(u*v)
with v = 1/((a*u) @ K), so each later iteration is one matrix-vector product
instead of a log-sum-exp.

`output_space_ot_diag`, the probe's diagnostic, runs no solver: its
measures sit on a line, where W2^2 has a closed form.

The trainer's representation regulariser calls `sinkhorn_divergence_with_grad`
on a step's whole hidden clouds (one point per completion, 32 in the bundled
configs) with eps = blur**2 (blur acts as a length scale on squared-Euclidean
costs); the trainer's blur, trainer.BLUR = 0.12, therefore means eps = 0.0144.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .prob_metrics import ProbVector
from .rep_metrics import EmpiricalMeasure

DEFAULT_MAX_ITER = 10_000
DEFAULT_TOL = 1e-9
DEFAULT_SCALING = 0.3


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 in Gram form from a common origin, clamped at 0 (module docstring).

    For `y is x` the costs have an exactly zero diagonal and are exactly
    symmetric: numpy computes x @ x.T as one triangle and mirrors it.
    """
    same = y is x
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValidationError("point clouds live in different dimensions")
    origin = x[0]
    x = x - origin
    y = x if same else y - origin
    gram = x @ y.T
    if same:
        sq_x = sq_y = gram.diagonal()
    else:
        sq_x, sq_y = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
    costs = sq_x[:, None] + sq_y[None, :] - 2.0 * gram
    return np.maximum(costs, 0.0, out=costs)


def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    peak = arr.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak.squeeze(axis) + np.log(np.exp(arr - peak).sum(axis=axis))


def _plateau():
    """A check of each new violation in turn: true once 200 in a row have
    not bettered the best so far by a relative 1e-3.

    Near-deterministic plans converge ever more slowly at small eps, so a
    loop stops there; its converged flag stays honest (violation < tol).
    """
    best, stalled = math.inf, 0

    def check(violation):
        nonlocal best, stalled
        if violation < best * (1.0 - 1e-3):
            best, stalled = violation, 0
        else:
            stalled += 1
        return stalled >= 200
    return check


def _scaling_loop(costs, log_a, epsilon, max_iter, tol):
    """The self term OT(a, a) from f = 0; returns (f, f, iterations, converged, trace).

    Each iteration is the averaged symmetric update f <- (f + T(f))/2
    (Feydy et al. 2019) on the plan (f, f).  The first runs in the log
    domain.  From its result f0 the potential is held in absorbed scaling
    form (Schmitzer 2019): f = f0 + eps*log(u) against the Gibbs kernel
    K = exp((2*f0 - C)/eps), so T(f) = f0 + eps*log(v) with
    v = 1/((a*u) @ K), one matrix-vector product, and the update is
    u <- sqrt(u*v).  The iterates are the log-domain ones up to roundoff.

    No step needs a range check.  At f = 0 the plan's rows
    a * exp((f - T(f))/eps) are at most a (C >= 0 and a sums to one), and the
    zero diagonal of C bounds K <= 1/sqrt(a_i a_j) from f0.  A scaling can
    then leave range only with a weight below about exp(-690), whose row
    adds less than itself to the violation, so the solve has converged.

    The trace holds the L1 row violation of the plan (f, f) of each
    iteration; the loop stops below tol or at a `_plateau`.
    """
    a = np.exp(log_a)
    f = np.zeros(costs.shape[0])
    g = -epsilon * _logsumexp(log_a[:, None] + (f[:, None] - costs) / epsilon, axis=0)
    f0 = 0.5 * (f + g)
    trace = [float(np.abs(np.exp(log_a + (f - g) / epsilon) - a).sum())]
    ka = a[:, None] * np.exp((f0[:, None] + f0[None, :] - costs) / epsilon)
    u_next = np.ones_like(f0)
    stalled = _plateau()
    while len(trace) < max_iter and not trace[-1] < tol and not stalled(trace[-1]):
        u = u_next
        v = 1.0 / (u @ ka)
        u_next = np.sqrt(u * v)
        # Row sums of the plan (f, f) are a * u/v, and so are its columns.
        trace.append(float(a @ np.abs(u / v - 1.0)))
    if len(trace) > 1:
        f = f0 + epsilon * np.log(u)
    return f, f, len(trace), trace[-1] < tol, trace


# Newton's method on the cross term's semi-dual at each temperature (Brauer,
# Clason, Lorenz and Wirth 2017, arXiv:1710.06635).  A step length t is
# accepted once the dual value has risen by at least _ARMIJO * t times its
# predicted rise, less _DUAL_ROUNDOFF times the scale of the potentials and
# costs: near the optimum the rise falls below the roundoff of the value
# itself.  After _NEWTON_HALVINGS halvings of t the step has failed.
# _NEWTON_RIDGE: see `_newton_step`.  A temperature above the target is
# left once the L1 row violation is below _LEVEL_TOL.
_ARMIJO = 1e-4
_DUAL_ROUNDOFF = 1e-14
_NEWTON_HALVINGS = 10
_NEWTON_RIDGE = 1e-12
_LEVEL_TOL = 1e-2


def _dual_point(costs, log_a, a, b, epsilon, f):
    """(value, g, kernel, rows) of the semi-dual <a,f> + <b,T(f)> at f, g = T(f).

    `kernel` is exp(z - logsumexp(z)) over each column, z = log a + (f - C)/eps,
    so its columns sum to one; the plan (f, g) is kernel * b, with exact
    columns b, and `rows` are its row sums.  a = exp(log a).
    """
    z = log_a[:, None] + (f[:, None] - costs) / epsilon
    peak = z.max(axis=0)
    kernel = np.exp(z - peak)
    mass = kernel.sum(axis=0)
    kernel /= mass
    g = -epsilon * (peak + np.log(mass))
    return float(a @ f) + float(b @ g), g, kernel, kernel @ b


def _newton_step(costs, log_a, a, b, epsilon, f, point, ridge, cost_max):
    """The next Newton iterate (f, point) from f, or None when the step fails.

    The semi-dual's Hessian is -H/eps with H = diag(rows) - P diag(1/b) P^T
    = diag(rows) - kernel diag(b) kernel^T.  H is singular along the ones
    vector (f + c, T(f) - c is the same plan) and nearly so on
    near-deterministic plans; `ridge`, _NEWTON_RIDGE * max(a), far above
    the roundoff of H, fixes both.  The step d solves H d = eps*(a - rows).
    A singular solve, a direction that is not finite or does not ascend, or
    a line search that runs out of halvings fails the step.  `cost_max` is
    max C; the solve computes it, a, b and `ridge` once.
    """
    value, _, kernel, rows = point
    residual = a - rows
    hessian = kernel @ (kernel * b).T
    np.negative(hessian, out=hessian)
    hessian.flat[::len(rows) + 1] += rows + ridge
    try:
        direction = np.linalg.solve(hessian, epsilon * residual)
    except np.linalg.LinAlgError:
        return None
    rise = float(residual @ direction)
    if not 0.0 < rise < math.inf:
        return None
    allowance = _DUAL_ROUNDOFF * (float(np.abs(f).max()) + cost_max)
    t = 1.0
    for _ in range(_NEWTON_HALVINGS + 1):
        trial = f + t * direction
        trial_point = _dual_point(costs, log_a, a, b, epsilon, trial)
        if trial_point[0] >= value + _ARMIJO * t * rise - allowance:
            return trial, trial_point
        t *= 0.5
    return None


def _sinkhorn_potentials(costs, log_a, log_b, epsilon, scaling, max_iter, tol):
    """Newton steps down a temperature ladder; returns (f, g, iterations, converged, trace).

    With log_b=None it solves the self term OT(a, a) on a symmetric `costs`
    by the averaged update from f = 0 at the target eps (`_scaling_loop`)
    and returns (f, f, ...), so the plan is exactly symmetric.

    A cross term starts from f = 0 at eps = max(max C, eps), and each
    iteration evaluates the plan (f, T(f)) and its L1 row violation.  At a
    coarse temperature it takes a Newton step on the semi-dual with
    backtracking (`_newton_step`) until the violation is below _LEVEL_TOL or
    a step fails, and then lowers the temperature by `scaling`, down to the
    target eps, keeping f.  At the target eps each violation goes to the
    trace, and the solve stops once it is below tol or at a `_plateau`; a
    step that fails there ends the solve at the last accepted f, unconverged.

    Iterations count the levels and the Newton iterations; the converged
    flag is honest (row violation < tol), and the trace is empty when
    max_iter ran out before the target eps, where g is then T(f).
    """
    if log_b is None:
        return _scaling_loop(costs, log_a, epsilon, max_iter, tol)
    a, b = np.exp(log_a), np.exp(log_b)
    ridge, cost_max = _NEWTON_RIDGE * a.max(), float(costs.max())
    eps_cur = max(cost_max, epsilon)
    f = np.zeros(costs.shape[0])
    point = _dual_point(costs, log_a, a, b, eps_cur, f)
    trace = []
    stalled = _plateau()
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        violation = float(np.abs(point[3] - a).sum())
        if eps_cur == epsilon:
            trace.append(violation)
            if violation < tol or iterations == max_iter or stalled(violation):
                break
        step = None if eps_cur > epsilon and violation < _LEVEL_TOL else _newton_step(
            costs, log_a, a, b, eps_cur, f, point, ridge, cost_max)
        if step is None:
            if eps_cur == epsilon:
                break
            eps_cur = max(epsilon, eps_cur * scaling)
            step = f, _dual_point(costs, log_a, a, b, eps_cur, f)
        f, point = step
    if eps_cur > epsilon:
        point = _dual_point(costs, log_a, a, b, epsilon, f)
    return f, point[1], iterations, bool(trace) and trace[-1] < tol, trace


def _solve(costs, log_a, log_b, epsilon, max_iter=DEFAULT_MAX_ITER) -> tuple:
    """(value, plan, iterations, converged, trace) of one solve; log_b=None is a self term."""
    f, g, iterations, converged, trace = _sinkhorn_potentials(
        costs, log_a, log_b, epsilon, DEFAULT_SCALING, max_iter, DEFAULT_TOL)
    if log_b is None:
        log_b = log_a
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / epsilon
    plan = np.exp(log_plan)
    transport = float(np.sum(plan * costs))
    kl = float(np.sum(plan * (log_plan - log_a[:, None] - log_b[None, :])))
    return transport + epsilon * kl, plan, iterations, converged, trace


def entropic_ot(a: EmpiricalMeasure, b: EmpiricalMeasure, epsilon: float, *,
                max_iter: int = DEFAULT_MAX_ITER) -> dict:
    """Entropic OT value, plan, and convergence data between two uniform clouds.

    Returns {"value", "iterations", "converged", "violation_trace",
    "raw_plan"}.  `raw_plan` is the plan of the final potentials, not
    rebalanced: the trace's last entry is its L1 row violation.
    Non-convergence (max_iter spent, a plateau, or a failed Newton step)
    comes back flagged, never raised; max_iter below 1 is rejected.  Passing
    the same measure twice solves the self term by the symmetric update.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")
    costs = squared_distances(a.points, b.points)
    value, plan, iterations, converged, trace = _solve(
        costs, np.log(a.weights), None if b is a else np.log(b.weights), epsilon, max_iter)
    return {
        "value": value,
        "iterations": iterations,
        "converged": converged,
        "violation_trace": trace,
        "raw_plan": plan,
    }


def _canonical_order(a: EmpiricalMeasure, b: EmpiricalMeasure) -> bool:
    """True when (a, b) should swap so S(a,b) and S(b,a) run identical solves.

    The cross solve (Newton steps on f, the first measure's potential)
    treats its two measures differently, so swapping them changes its
    result by roundoff, and by more when it stops unconverged; a
    deterministic argument order removes the difference exactly.
    """
    return np.ascontiguousarray(b.points).tobytes() < np.ascontiguousarray(a.points).tobytes()


def _plan_position_grad(plan: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d/dx of sum_ij plan_ij |x_i - y_j|^2 at fixed plan (envelope theorem)."""
    row = plan.sum(axis=1)
    return 2.0 * (row[:, None] * x - plan @ y)


def sinkhorn_divergence_with_grad(a: EmpiricalMeasure, b: EmpiricalMeasure,
                                  epsilon: float, max_iter: int = DEFAULT_MAX_ITER) -> tuple:
    """(S_eps value clamped at 0, dS/d(a.points), solve stats).

    `max_iter` bounds each of the three solves.  The stats are {"converged":
    all three solves converged, "iterations" and "violation": the cross
    solve's iteration count and final L1 row violation (nan if it never
    reached the target eps)}.  Symmetric by construction (canonical argument order).
    Gradients w.r.t. the first measure's point positions only; at the
    Sinkhorn fixed point the potentials are stationary, so only the explicit
    cost dependence contributes.
    """
    swapped = _canonical_order(a, b)
    first, second = (b, a) if swapped else (a, b)
    cross = entropic_ot(first, second, epsilon, max_iter=max_iter)
    self_a = entropic_ot(a, a, epsilon, max_iter=max_iter)
    self_b = entropic_ot(b, b, epsilon, max_iter=max_iter)
    value = max(0.0, cross["value"] - 0.5 * self_a["value"] - 0.5 * self_b["value"])
    cross_plan = cross["raw_plan"].T if swapped else cross["raw_plan"]
    # The a-a self term counts x on both sides; its plan equals its transpose,
    # so the two halves are one gradient.
    grad = (_plan_position_grad(cross_plan, a.points, b.points)
            - _plan_position_grad(self_a["raw_plan"], a.points, a.points))
    stats = {
        "converged": cross["converged"] and self_a["converged"] and self_b["converged"],
        "iterations": cross["iterations"],
        "violation": cross["violation_trace"][-1] if cross["violation_trace"] else math.nan,
    }
    return value, grad, stats


def subsample_indices(size: int, cap: int, seed) -> np.ndarray:
    """Deterministic seeded row choice (without replacement) down to `cap` rows."""
    if cap <= 0:
        raise ValidationError("subsample cap must be positive")
    if size <= cap:
        return np.arange(size)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(size, size=cap, replace=False))


def output_space_ot_diag(p: ProbVector, q: ProbVector, top_k: int) -> float:
    """Exact W2^2 between two distributions on the integer token index.

    Both are cut to the union of their top-k supports and renormalised.  On a
    line the monotone coupling is optimal: W2^2 is the integral over t in
    [0, 1] of (Q_p(t) - Q_q(t))^2, with quantile functions Q that are constant
    between the merged breakpoints of the two cumulative sums (Peyre and Cuturi
    2019, arXiv:1803.00567, the 1-D case).  Never enters any training loss.
    The union and the breakpoints are sorted Python sets, the values
    np.unique and np.union1d give, without the numpy.ma import those load.
    """
    p = p if isinstance(p, ProbVector) else ProbVector(p)
    q = q if isinstance(q, ProbVector) else ProbVector(q)
    if p.support_size != q.support_size:
        raise ValidationError("distributions must share a vocabulary")
    if top_k < 1:
        raise ValidationError("top_k must be at least 1")
    k = min(top_k, p.support_size)
    top_p = np.argsort(-p.probs, kind="stable")[:k]
    top_q = np.argsort(-q.probs, kind="stable")[:k]
    union = np.array(sorted({*top_p.tolist(), *top_q.tolist()}))
    # The union holds each side's largest entry, so neither mass below is zero.
    mass_p = p.probs[union]
    mass_q = q.probs[union]
    cdf_p = np.cumsum(mass_p / mass_p.sum())
    cdf_q = np.cumsum(mass_q / mass_q.sum())
    breaks = np.array(sorted({*cdf_p.tolist(), *cdf_q.tolist()}))
    widths = np.diff(breaks, prepend=0.0)
    mids = breaks - 0.5 * widths
    # Q(t) is the first index whose cumulative sum reaches t; the last takes the rest.
    x_p = union[np.searchsorted(cdf_p[:-1], mids)]
    x_q = union[np.searchsorted(cdf_q[:-1], mids)]
    return float(np.sum(widths * (x_p - x_q) ** 2))
