"""Entropic optimal transport, debiased Sinkhorn divergence, and exact W2 values.

Primal problem (squared-Euclidean ground cost unless stated otherwise):

    OT_eps(a, b) = min_{pi in Pi(a,b)}  sum_ij pi_ij C_ij + eps * KL(pi || a x b)

solved with eps-scaling: Sinkhorn iterations update the potentials in the log
domain at a geometrically decreasing sequence of temperatures (factor
`scaling`, default 0.8) from max(C) down to the target eps, and the solve
is finished at the target until the L1 marginal violation drops below
tolerance.  The debiased divergence is

    S_eps(a, b) = OT_eps(a, b) - OT_eps(a, a)/2 - OT_eps(b, b)/2,

symmetric, zero at a == b, and converging to W2^2 as eps -> 0.

Every solve goes through `_sinkhorn_potentials`.  At the target eps the
cross term takes Newton steps on its semi-dual (Brauer, Clason, Lorenz and
Wirth 2017, arXiv:1710.06635) with backtracking on the dual value; the
trainer's 32-point solves converge in a handful of them, where Sinkhorn
iterations stopped unconverged at 500.  The first step that fails (on
near-deterministic plans, e.g. integer-index costs at eps 1e-3) hands the
rest of the solve to the scaling loop.  That loop absorbs the potentials
into a Gibbs kernel K = exp((f0 + g0 - C)/eps) and iterates on scalings
u, v with f = f0 + eps*log(u), g = g0 + eps*log(v) (Schmitzer 2019,
arXiv:1610.06519), so each half-step is one matrix-vector product instead of
a log-sum-exp; an iteration whose scaling would leave range runs in the log
domain and the kernel is rebuilt from its result.  The cross term alternates
f and g; its row violation is read off the next f half-step (the row sums of
the plan are a * exp((f - f_next)/eps) = a * u/u_next), so it costs no third
product.  The self terms OT(a, a) run the scaling loop with the averaged
symmetric update f <- (f + T_eps(f))/2 on a single potential (Feydy et al.
2019), u <- sqrt(u*v) in scaling form, which converges in a few dozen
iterations where the alternating update stalls.

`exact_w2_small` enumerates permutation couplings (optimal for equal-weight,
equal-size clouds) and exists purely as a test oracle; it is never called by
the solver it checks.  `output_space_ot_diag`, the probe's diagnostic, runs no
solver either: its measures sit on a line, where W2^2 has a closed form.

The trainer's representation regulariser calls `sinkhorn_divergence_with_grad`
on a step's whole hidden clouds (one point per completion, 32 in the bundled
configs) with eps = blur**2 (blur acts as a length scale on squared-Euclidean
costs); the customary blur 0.12 therefore means eps = 0.0144.
`subsample_indices` has no caller in the package; perfbench's tracer still
wraps it.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionMismatchError, UnsupportedInstanceError, ValidationError
from .prob_metrics import ProbVector
from .rep_metrics import EmpiricalMeasure

DEFAULT_MAX_ITER = 10_000
DEFAULT_TOL = 1e-9
DEFAULT_SCALING = 0.8


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError("point clouds live in different dimensions")
    diff = x[:, None, :] - y[None, :, :]
    return np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0)


def exact_w2_small(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W2^2 between equal-size uniform clouds by permutation enumeration.

    Brute-force test oracle; refuses anything beyond 10 points per side.
    """
    if a.size != b.size:
        raise UnsupportedInstanceError("exact oracle needs equal-size clouds")
    if a.size > 10:
        raise UnsupportedInstanceError("exact oracle handles at most 10 points per side")
    costs = squared_distances(a.points, b.points)
    n = a.size
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            total += costs[i, j]
            if total >= best:
                break
        best = min(best, total)
    return best / n


def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    peak = arr.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak.squeeze(axis) + np.log(np.exp(arr - peak).sum(axis=axis))


# Scalings stay at or below this; a kernel product that would take one past it
# sends the iteration back to the log domain and the kernel is rebuilt.  No
# lower bound is needed: each scaling is the reciprocal of a product of the
# other scaling, at most _SCALING_MAX, with a kernel bounded at its rebuild.
_SCALING_MAX = 1e100

# Log row sums are read up to this bound, so a row violation stays finite.
_LOG_ROWS_MAX = 300.0


def _scaling_step(u, ka, kb):
    """One iteration in absorbed scaling form: (v, u_next, ratio), or None.

    `ka` = a * K and `kb` = K * b, with kb None for the symmetric update
    u_next = sqrt(u*v); ratio is the plan's row sums over a.  None means a
    scaling would exceed _SCALING_MAX (a kernel product below its
    reciprocal, or zero by underflow), and nothing has been divided by it.
    The smallest entry is read with argmin, a third of the cost of
    ndarray.min on these 32-entry vectors.
    """
    col = u @ ka
    if col[col.argmin()] < 1.0 / _SCALING_MAX:
        return None
    v = 1.0 / col
    if kb is None:
        return v, np.sqrt(u * v), u / v
    row = kb @ v
    if row[row.argmin()] < 1.0 / _SCALING_MAX:
        return None
    return v, 1.0 / row, u * row


def _eps_ladder(costs, log_a, log_b, epsilon, scaling, max_iter):
    """Log-domain Sinkhorn, one iteration per temperature above the target eps.

    The temperature starts at max(C) and falls by `scaling` per iteration;
    each iteration takes g = T(f) and then the next f (f = T'(g) at the new
    temperature, or the averaged symmetric update (f + g)/2 when log_b is
    None), which takes the large potential changes between temperatures.
    Returns (f, levels): f enters the first iteration at the target eps, and
    levels is the number of iterations run, at most max_iter.
    """
    symmetric = log_b is None
    eps_cur = max(float(costs.max()), epsilon)
    f = np.zeros(costs.shape[0]) if symmetric else (
        -eps_cur * _logsumexp(log_b[None, :] - costs / eps_cur, axis=1))
    levels = 0
    while eps_cur > epsilon and levels < max_iter:
        levels += 1
        g = -eps_cur * _logsumexp(log_a[:, None] + (f[:, None] - costs) / eps_cur, axis=0)
        eps_cur = max(epsilon, eps_cur * scaling)
        if symmetric:
            f = 0.5 * (f + g)
        else:
            f = -eps_cur * _logsumexp(log_b[None, :] + (g[None, :] - costs) / eps_cur, axis=1)
    return f, levels


def _scaling_loop(costs, log_a, log_b, epsilon, f, max_iter, tol):
    """Sinkhorn at the target eps from f; returns (f, g, iterations, converged, trace).

    The first iteration runs in the log domain: g = T(f), then the next f.
    From its result the potentials are held in absorbed scaling form
    (Schmitzer 2019): f = f0 + eps*log(u), g = g0 + eps*log(v) against the
    Gibbs kernel K = exp((f0 + g0 - C)/eps), so the half-steps g = T(f) and
    f = T'(g) are v = 1/((a*u) @ K) and u = 1/(K @ (b*v)), one matrix-vector
    product each.  The iterates are the log-domain ones up to roundoff.  An
    iteration whose scaling would exceed _SCALING_MAX runs in the log domain
    instead, and K is rebuilt from its result.  With log_b=None the update
    is the averaged symmetric one, u <- sqrt(u*v) with f0 = g0.

    The trace holds the L1 row violation of the plan (f, g) of each
    iteration.  Near-deterministic plans converge ever more slowly at small
    eps, so a plateau cut-off stops the loop once the violation has stopped
    improving; the converged flag stays honest (violation < tol) either way.
    """
    symmetric = log_b is None
    a = np.exp(log_a)
    f_next = f
    ka = None
    scaled = False
    iterations = 0
    trace = []
    converged = False
    best = math.inf
    stalled = 0
    while iterations < max_iter:
        iterations += 1
        step = None if ka is None else _scaling_step(u_next, ka, kb)
        scaled = step is not None
        if scaled:
            u = u_next
            v, u_next, ratio = step
            # Row sums of the plan (f, g) are a * ratio; columns are exact
            # after the g half-step (and equal the rows when symmetric).
            row_violation = float(a @ np.abs(ratio - 1.0))
        else:
            if ka is not None:
                f_next = f0 + epsilon * np.log(u_next)
            f = f_next
            g = -epsilon * _logsumexp(log_a[:, None] + (f[:, None] - costs) / epsilon, axis=0)
            if symmetric:
                f_next = 0.5 * (f + g)
                shift = f - g
            else:
                f_next = -epsilon * _logsumexp(log_b[None, :] + (g[None, :] - costs) / epsilon, axis=1)
                shift = f - f_next
            # The row sums a * exp(shift/eps), from their logarithms and read
            # up to exp(_LOG_ROWS_MAX): after a coarse eps step a peaked self
            # plan's rows can exceed the float range (e^1600 on index costs).
            log_rows = np.minimum(log_a + shift / epsilon, _LOG_ROWS_MAX)
            row_violation = float(np.abs(np.exp(log_rows) - a).sum())
            # K from this iteration's result is bounded: for the cross term
            # f_next = T'(g), so b * K sums to at most one per row; for the
            # self term K <= 1/sqrt(a_i a_j).
            f0 = f_next
            g0 = f0 if symmetric else g
            kernel = np.exp((f0[:, None] + g0[None, :] - costs) / epsilon)
            ka = a[:, None] * kernel
            kb = None if symmetric else kernel * np.exp(log_b)[None, :]
            u_next = np.ones_like(f0)
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
    if scaled:
        f = f0 + epsilon * np.log(u)
        g = g0 + epsilon * np.log(v)
    return f, (f if symmetric else g), iterations, converged, trace


# Newton's method on the cross term's semi-dual at the target eps (Brauer,
# Clason, Lorenz and Wirth 2017, arXiv:1710.06635).  A step length t is
# accepted once the dual value has risen by at least _ARMIJO * t times its
# predicted rise, less _DUAL_ROUNDOFF times the scale of the potentials and
# costs: near the optimum the rise falls below the roundoff of the value
# itself.  After _NEWTON_HALVINGS halvings of t the step has failed.
# _NEWTON_RIDGE: see `_newton_step`.
_ARMIJO = 1e-4
_DUAL_ROUNDOFF = 1e-14
_NEWTON_HALVINGS = 3
_NEWTON_RIDGE = 1e-12


def _dual_point(costs, log_a, log_b, epsilon, f):
    """(value, g, kernel, rows) of the semi-dual <a,f> + <b,T(f)> at f, g = T(f).

    `kernel` is exp(z - logsumexp(z)) over each column, z = log a + (f - C)/eps,
    so its columns sum to one; the plan (f, g) is kernel * b, with exact
    columns b, and `rows` are its row sums.
    """
    z = log_a[:, None] + (f[:, None] - costs) / epsilon
    peak = z.max(axis=0)
    kernel = np.exp(z - peak)
    mass = kernel.sum(axis=0)
    kernel /= mass
    g = -epsilon * (peak + np.log(mass))
    b = np.exp(log_b)
    return float(np.exp(log_a) @ f) + float(b @ g), g, kernel, kernel @ b


def _newton_step(costs, log_a, log_b, epsilon, f, point):
    """The next Newton iterate (f, point) from f, or None when the step fails.

    The semi-dual's Hessian is -H/eps with H = diag(rows) - P diag(1/b) P^T
    = diag(rows) - kernel diag(b) kernel^T.  H is singular along the ones
    vector (f + c, T(f) - c is the same plan) and nearly so on
    near-deterministic plans; a ridge of _NEWTON_RIDGE * max(a), far above
    the roundoff of H, fixes both.  The step d solves H d = eps*(a - rows).
    A singular solve, a direction that is not finite or does not ascend, or
    a line search that runs out of halvings fails the step.
    """
    value, _, kernel, rows = point
    a = np.exp(log_a)
    residual = a - rows
    hessian = np.diag(rows + _NEWTON_RIDGE * a.max()) - kernel @ (kernel * np.exp(log_b)).T
    try:
        direction = np.linalg.solve(hessian, epsilon * residual)
    except np.linalg.LinAlgError:
        return None
    rise = float(residual @ direction)
    if not 0.0 < rise < math.inf:
        return None
    allowance = _DUAL_ROUNDOFF * (float(np.abs(f).max()) + float(costs.max()))
    t = 1.0
    for _ in range(_NEWTON_HALVINGS + 1):
        trial = f + t * direction
        trial_point = _dual_point(costs, log_a, log_b, epsilon, trial)
        if trial_point[0] >= value + _ARMIJO * t * rise - allowance:
            return trial, trial_point
        t *= 0.5
    return None


def _sinkhorn_potentials(costs, log_a, log_b, epsilon, scaling, max_iter, tol):
    """Sinkhorn with eps-scaling and Newton steps; returns (f, g, iterations, converged, trace).

    The eps ladder (`_eps_ladder`) runs in the log domain down to the target
    eps.  From its f, each cross-term iteration evaluates the plan (f, T(f))
    at the target eps, records its L1 row violation in the trace, and stops
    once it is below tol; otherwise it takes a Newton step on the semi-dual
    with backtracking (`_newton_step`).  The first time a step fails, the
    rest of the solve goes to the scaling loop (`_scaling_loop`) from the
    current f; its first iteration evaluates that plan again and takes over
    its trace entry.

    With log_b=None it solves the self term OT(a, a) on a symmetric `costs`
    by the scaling loop's averaged update from the ladder's f, which
    converges within a few dozen iterations, and returns (f, f, ...), so the
    plan is exactly symmetric.  Iterations count the ladder levels and the
    iterations at the target eps, Newton or scaling; the converged flag is
    honest (row violation < tol), and the trace is empty when max_iter ran
    out on the ladder.
    """
    f, iterations = _eps_ladder(costs, log_a, log_b, epsilon, scaling, max_iter)
    trace = []
    if log_b is not None:
        a = np.exp(log_a)
        point = _dual_point(costs, log_a, log_b, epsilon, f)
        if iterations == max_iter:
            return f, point[1], iterations, False, trace
        while True:
            iterations += 1
            trace.append(float(np.abs(point[3] - a).sum()))
            converged = trace[-1] < tol
            if converged or iterations == max_iter:
                return f, point[1], iterations, converged, trace
            step = _newton_step(costs, log_a, log_b, epsilon, f, point)
            if step is None:
                break
            f, point = step
        iterations -= 1
        trace.pop()
    f, g, more, converged, tail = _scaling_loop(
        costs, log_a, log_b, epsilon, f, max_iter - iterations, tol)
    return f, g, iterations + more, converged, trace + tail


def _solve(costs, log_a, log_b, epsilon, scaling=DEFAULT_SCALING,
           max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL) -> tuple:
    """(value, plan, iterations, converged, trace) of one solve; log_b=None is a self term."""
    f, g, iterations, converged, trace = _sinkhorn_potentials(
        costs, log_a, log_b, epsilon, scaling, max_iter, tol)
    if log_b is None:
        log_b = log_a
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / epsilon
    plan = np.exp(log_plan)
    transport = float(np.sum(plan * costs))
    kl = float(np.sum(plan * (log_plan - log_a[:, None] - log_b[None, :])))
    return transport + epsilon * kl, plan, iterations, converged, trace


def entropic_ot(a: EmpiricalMeasure, b: EmpiricalMeasure, epsilon: float, *,
                scaling: float = DEFAULT_SCALING, max_iter: int = DEFAULT_MAX_ITER,
                tol: float = DEFAULT_TOL) -> dict:
    """Entropic OT value, plan, and convergence data between two uniform clouds.

    Returns {"value", "iterations", "converged", "violation_trace",
    "raw_plan"}.  `raw_plan` is the plan of the final potentials, not
    rebalanced: the trace's last entry is its L1 row violation.
    Non-convergence at max_iter comes back flagged, never raised.  Passing
    the same measure twice solves the self term by the symmetric update.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    costs = squared_distances(a.points, b.points)
    value, plan, iterations, converged, trace = _solve(
        costs, np.log(a.weights), None if b is a else np.log(b.weights),
        epsilon, scaling, max_iter, tol)
    return {
        "value": value,
        "iterations": iterations,
        "converged": converged,
        "violation_trace": trace,
        "raw_plan": plan,
    }


def _canonical_order(a: EmpiricalMeasure, b: EmpiricalMeasure) -> bool:
    """True when (a, b) should swap so S(a,b) and S(b,a) run identical solves.

    The alternating Sinkhorn update breaks exchange symmetry by roundoff at
    non-convergence; a deterministic argument order removes it exactly.
    """
    return np.ascontiguousarray(b.points).tobytes() < np.ascontiguousarray(a.points).tobytes()


def _plan_position_grad(plan: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d/dx of sum_ij plan_ij |x_i - y_j|^2 at fixed plan (envelope theorem)."""
    row = plan.sum(axis=1)
    return 2.0 * (row[:, None] * x - plan @ y)


def sinkhorn_divergence_with_grad(a: EmpiricalMeasure, b: EmpiricalMeasure,
                                  epsilon: float, **kwargs) -> tuple:
    """(S_eps value clamped at 0, dS/d(a.points), solve stats).

    `kwargs` go to `entropic_ot`.  The stats are {"converged": all three
    solves converged, "iterations" and "violation": the cross solve's
    iteration count and final L1 row violation (nan if it never reached the
    target eps)}.  Symmetric by construction (canonical argument order).
    Gradients w.r.t. the first measure's point positions only; at the
    Sinkhorn fixed point the potentials are stationary, so only the explicit
    cost dependence contributes.
    """
    swapped = _canonical_order(a, b)
    first, second = (b, a) if swapped else (a, b)
    cross = entropic_ot(first, second, epsilon, **kwargs)
    self_a = entropic_ot(a, a, epsilon, **kwargs)
    self_b = entropic_ot(b, b, epsilon, **kwargs)
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
    """
    p = p if isinstance(p, ProbVector) else ProbVector(p)
    q = q if isinstance(q, ProbVector) else ProbVector(q)
    if p.support_size != q.support_size:
        raise DimensionMismatchError("distributions must share a vocabulary")
    if top_k < 1:
        raise ValidationError("top_k must be at least 1")
    k = min(top_k, p.support_size)
    top_p = np.argsort(-p.probs, kind="stable")[:k]
    top_q = np.argsort(-q.probs, kind="stable")[:k]
    union = np.unique(np.concatenate([top_p, top_q]))
    # The union holds each side's largest entry, so neither mass below is zero.
    mass_p = p.probs[union]
    mass_q = q.probs[union]
    cdf_p = np.cumsum(mass_p / mass_p.sum())
    cdf_q = np.cumsum(mass_q / mass_q.sum())
    breaks = np.union1d(cdf_p, cdf_q)
    widths = np.diff(breaks, prepend=0.0)
    mids = breaks - 0.5 * widths
    # Q(t) is the first index whose cumulative sum reaches t; the last takes the rest.
    x_p = union[np.searchsorted(cdf_p[:-1], mids)]
    x_q = union[np.searchsorted(cdf_q[:-1], mids)]
    return float(np.sum(widths * (x_p - x_q) ** 2))
