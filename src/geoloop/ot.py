"""Entropic optimal transport, debiased Sinkhorn divergence, and exact small oracles.

Primal problem (squared-Euclidean ground cost unless stated otherwise):

    OT_eps(a, b) = min_{pi in Pi(a,b)}  sum_ij pi_ij C_ij + eps * KL(pi || a x b)

solved by Sinkhorn iterations with eps-scaling: potentials are updated in
the log domain at a geometrically decreasing sequence of temperatures (factor
`scaling`, default 0.8) from max(C) down to the target eps, then polished at
the target, in absorbed scaling form, until the L1 marginal violation drops
below tolerance.  The debiased divergence is

    S_eps(a, b) = OT_eps(a, b) - OT_eps(a, a)/2 - OT_eps(b, b)/2,

symmetric, zero at a == b, and converging to W2^2 as eps -> 0.

Every solve goes through one loop, `_sinkhorn_potentials`.  At the target
eps it absorbs the potentials into a Gibbs kernel K = exp((f0 + g0 - C)/eps)
and iterates on scalings u, v with f = f0 + eps*log(u), g = g0 + eps*log(v)
(Schmitzer 2019, arXiv:1610.06519), so each half-step is one matrix-vector
product instead of a log-sum-exp; an iteration whose scaling would leave
range runs in the log domain and the kernel is rebuilt from its result.
The self terms OT(a, a) use the averaged symmetric update
f <- (f + T_eps(f))/2 on a single potential (Feydy et al. 2019), u <- sqrt(u*v)
in scaling form, which converges in a few dozen iterations where the
alternating update stalls.  The cross term alternates f and g; its row
violation is read off the next f half-step (the row sums of the plan are
a * exp((f - f_next)/eps) = a * u/u_next), so it costs no third product.

`exact_w2_small` enumerates permutation couplings (optimal for equal-weight,
equal-size clouds) and exists purely as a test oracle; it is never called by
the solver it checks.

The trainer's representation regulariser takes eps = blur**2 (blur acts as a
length scale on squared-Euclidean costs); the customary blur 0.12 therefore
means eps = 0.0144.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UnsupportedInstanceError, ValidationError
from .prob_metrics import ProbVector
from .rep_metrics import EmpiricalMeasure

DEFAULT_MAX_ITER = 10_000
DEFAULT_TOL = 1e-9
DEFAULT_SCALING = 0.8

@dataclass(frozen=True)
class TransportPlan:
    """A coupling with its marginals; row/column sums must match within `tolerance`.

    The default 1e-6 is the contract for converged plans; a flagged
    non-converged solve may carry a looser achieved tolerance.
    """

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    tolerance: float = 1e-6

    def __post_init__(self):
        plan = np.atleast_2d(np.asarray(self.plan, dtype=float))
        row = np.asarray(self.row_marginal, dtype=float)
        col = np.asarray(self.col_marginal, dtype=float)
        if plan.shape != (row.size, col.size):
            raise DimensionMismatchError("plan shape must match marginal sizes")
        if np.any(plan < -1e-12):
            raise ValidationError("plan entries must be nonnegative")
        if np.max(np.abs(plan.sum(axis=1) - row)) > self.tolerance:
            raise ValidationError("row sums deviate from the first marginal")
        if np.max(np.abs(plan.sum(axis=0) - col)) > self.tolerance:
            raise ValidationError("column sums deviate from the second marginal")
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "row_marginal", row)
        object.__setattr__(self, "col_marginal", col)



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


def _sinkhorn_potentials(costs, log_a, log_b, epsilon, scaling, max_iter, tol):
    """Sinkhorn with eps-scaling; returns (f, g, iterations, converged, trace).

    Down to the first iteration at the target eps each iteration runs in the
    log domain, one per temperature, which takes the large potential changes
    between temperatures.  From its result the potentials are held in
    absorbed scaling form (Schmitzer 2019): f = f0 + eps*log(u),
    g = g0 + eps*log(v) against the Gibbs kernel K = exp((f0 + g0 - C)/eps),
    so the half-steps g = T(f) and f = T'(g) are v = 1/((a*u) @ K) and
    u = 1/(K @ (b*v)), one matrix-vector product each.  The iterates are the
    log-domain ones up to roundoff.  An iteration whose scaling would exceed
    _SCALING_MAX runs in the log domain instead, and K is rebuilt from its
    result.

    With log_b=None it solves the self term OT(a, a) on a symmetric `costs`
    by the averaged update f <- (f + T(f))/2, i.e. u <- sqrt(u*v) with
    f0 = g0, and returns (f, f, ...).  The trace holds the L1 row violation
    of the plan (f, g) at the target eps.  Near-deterministic plans converge
    ever more slowly at small eps, so a plateau cut-off stops the loop once
    the violation has stopped improving; the converged flag stays honest
    (violation < tol) either way.
    """
    symmetric = log_b is None
    a = np.exp(log_a)
    eps_cur = max(float(costs.max()), epsilon)
    g = np.zeros(costs.shape[1])
    f = f_next = np.zeros(costs.shape[0]) if symmetric else (
        -eps_cur * _logsumexp(log_b[None, :] + (g[None, :] - costs) / eps_cur, axis=1))
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
        else:
            if ka is not None:
                f_next = f0 + epsilon * np.log(u_next)
            f = f_next
            # g = T(f): the g half-step, or the symmetric map when log_b is None.
            g = -eps_cur * _logsumexp(log_a[:, None] + (f[:, None] - costs) / eps_cur, axis=0)
            at_target = eps_cur <= epsilon
            if not at_target:
                eps_cur = max(epsilon, eps_cur * scaling)
            if symmetric:
                f_next = 0.5 * (f + g)
                shift = f - g
            else:
                f_next = -eps_cur * _logsumexp(log_b[None, :] + (g[None, :] - costs) / eps_cur, axis=1)
                shift = f - f_next
            if not at_target:
                continue
            ratio = np.exp(shift / epsilon)
            # K from this iteration's result is bounded: for the cross term
            # f_next = T'(g), so b * K sums to at most one per row; for the
            # self term K <= 1/sqrt(a_i a_j).
            f0 = f_next
            g0 = f0 if symmetric else g
            kernel = np.exp((f0[:, None] + g0[None, :] - costs) / epsilon)
            ka = a[:, None] * kernel
            kb = None if symmetric else kernel * np.exp(log_b)[None, :]
            u_next = np.ones_like(f0)
        # Row sums of the plan (f, g) are a * ratio, ratio = exp(shift/eps);
        # columns are exact after the g half-step (and equal the rows when
        # symmetric).
        row_violation = float(a @ np.abs(ratio - 1.0))
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

    Returns {"value", "plan": TransportPlan, "iterations", "converged",
    "violation_trace", "raw_plan"}.  Non-convergence at max_iter comes back
    flagged, never raised.  Passing the same measure twice solves the self
    term by the symmetric update.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    costs = squared_distances(a.points, b.points)
    wa, wb = a.weights, b.weights
    value, plan, iterations, converged, trace = _solve(
        costs, np.log(wa), None if b is a else np.log(wb), epsilon, scaling, max_iter, tol)
    # Renormalise the last Sinkhorn half-step so rows match exactly (columns
    # already do); the residual column drift is bounded by the row violation.
    row_sums = plan.sum(axis=1, keepdims=True)
    balanced = plan * (wa[:, None] / np.maximum(row_sums, 1e-300))
    achieved = float(np.abs(balanced.sum(axis=0) - wb).max())
    return {
        "value": value,
        "plan": TransportPlan(balanced, wa, wb, tolerance=max(1e-6, 2.0 * achieved)),
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


def sinkhorn_divergence(a: EmpiricalMeasure, b: EmpiricalMeasure, epsilon: float,
                        **kwargs) -> dict:
    """Debiased divergence S_eps = OT(a,b) - OT(a,a)/2 - OT(b,b)/2, clamped at 0.

    Returns {"value"} and the solve stats of `sinkhorn_divergence_with_grad`.
    """
    value, _, stats = sinkhorn_divergence_with_grad(a, b, epsilon, **kwargs)
    return {"value": value, **stats}


def subsample_indices(size: int, cap: int, seed) -> np.ndarray:
    """Deterministic seeded row choice (without replacement) down to `cap` rows."""
    if cap <= 0:
        raise ValidationError("subsample cap must be positive")
    if size <= cap:
        return np.arange(size)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(size, size=cap, replace=False))


def output_space_ot_diag(p: ProbVector, q: ProbVector, top_k: int, *,
                         epsilon: float = 1e-3) -> float:
    """Offline diagnostic: debiased entropic OT between truncated distributions.

    Ground cost is the squared index difference over the union of both sides'
    top-k supports; the self-term debiasing keeps identical inputs at exactly
    zero.  Never enters any training loss.
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
    mass_p = p.probs[union]
    mass_q = q.probs[union]
    if mass_p.sum() <= 0 or mass_q.sum() <= 0:
        raise ValidationError("degenerate distribution: no mass on the top-k union")
    mass_p = mass_p / mass_p.sum()
    mass_q = mass_q / mass_q.sum()
    costs = (union[:, None].astype(float) - union[None, :].astype(float)) ** 2
    # Zero-probability support points are dropped: they carry no mass and
    # their log-weights would poison the potentials.
    keep_p, keep_q = mass_p > 0, mass_q > 0
    log_p, log_q = np.log(mass_p[keep_p]), np.log(mass_q[keep_q])
    cross = _solve(costs[np.ix_(keep_p, keep_q)], log_p, log_q, epsilon)[0]
    self_p = _solve(costs[np.ix_(keep_p, keep_p)], log_p, None, epsilon)[0]
    self_q = _solve(costs[np.ix_(keep_q, keep_q)], log_q, None, epsilon)[0]
    return max(0.0, cross - 0.5 * self_p - 0.5 * self_q)
