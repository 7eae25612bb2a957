"""Entropic optimal transport, debiased Sinkhorn divergence, and exact small oracles.

Primal problem (squared-Euclidean ground cost unless stated otherwise):

    OT_eps(a, b) = min_{pi in Pi(a,b)}  sum_ij pi_ij C_ij + eps * KL(pi || a x b)

solved by log-domain Sinkhorn iterations with eps-scaling: potentials are
updated at a geometrically decreasing sequence of temperatures (factor
`scaling`, default 0.8) from max(C) down to the target eps, then polished at
the target until the L1 marginal violation drops below tolerance.  The
debiased divergence is

    S_eps(a, b) = OT_eps(a, b) - OT_eps(a, a)/2 - OT_eps(b, b)/2,

symmetric, zero at a == b, and converging to W2^2 as eps -> 0.

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
class CostMatrix:
    """Nonnegative finite ground costs between two point families."""

    costs: np.ndarray

    def __post_init__(self):
        costs = np.atleast_2d(np.asarray(self.costs, dtype=float))
        if not np.all(np.isfinite(costs)):
            raise ValidationError("costs must be finite")
        if np.any(costs < 0):
            raise ValidationError("costs must be nonnegative")
        object.__setattr__(self, "costs", costs)


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
    peak = np.max(arr, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.squeeze(peak, axis=axis) + np.log(
        np.sum(np.exp(arr - peak), axis=axis))


def _sinkhorn_potentials(costs, log_a, log_b, epsilon, scaling, max_iter, tol):
    """Log-domain Sinkhorn with eps-scaling; returns (f, g, iterations, converged, trace).

    Near-deterministic plans converge ever more slowly at small eps, so a
    plateau cut-off stops the loop once the violation has stopped improving;
    the converged flag stays honest (violation < tol) either way.
    """
    n, m = costs.shape
    f = np.zeros(n)
    g = np.zeros(m)
    eps_cur = max(float(np.max(costs)), epsilon)
    iterations = 0
    trace = []
    converged = False
    best = math.inf
    stalled = 0
    while iterations < max_iter:
        iterations += 1
        f = -eps_cur * _logsumexp(log_b[None, :] + (g[None, :] - costs) / eps_cur, axis=1)
        g = -eps_cur * _logsumexp(log_a[:, None] + (f[:, None] - costs) / eps_cur, axis=0)
        if eps_cur > epsilon:
            eps_cur = max(epsilon, eps_cur * scaling)
            continue
        # At the target temperature: columns are exact after the g update, so
        # the row violation measures convergence of the full plan.
        log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / eps_cur
        row_violation = float(np.abs(np.exp(_logsumexp(log_plan, axis=1)) - np.exp(log_a)).sum())
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
    return f, g, iterations, converged, trace


def entropic_ot(a: EmpiricalMeasure, b: EmpiricalMeasure, epsilon: float, *,
                costs: np.ndarray | None = None, scaling: float = DEFAULT_SCALING,
                max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL) -> dict:
    """Entropic OT value, plan, and convergence data between two uniform clouds.

    Returns {"value", "plan": TransportPlan, "iterations", "converged",
    "violation_trace"}.  Non-convergence at max_iter comes back flagged, never
    raised.  `costs` overrides the squared-Euclidean default.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if costs is None:
        costs = squared_distances(a.points, b.points)
    else:
        costs = CostMatrix(costs).costs
        if costs.shape != (a.size, b.size):
            raise DimensionMismatchError("cost matrix shape must match measure sizes")
    wa, wb = a.weights, b.weights
    log_a, log_b = np.log(wa), np.log(wb)
    f, g, iterations, converged, trace = _sinkhorn_potentials(
        costs, log_a, log_b, epsilon, scaling, max_iter, tol)
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / epsilon
    plan = np.exp(log_plan)
    transport = float(np.sum(plan * costs))
    kl = float(np.sum(plan * (log_plan - log_a[:, None] - log_b[None, :])))
    value = transport + epsilon * kl
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


def sinkhorn_divergence(a: EmpiricalMeasure, b: EmpiricalMeasure, epsilon: float, *,
                        scaling: float = DEFAULT_SCALING,
                        max_iter: int = DEFAULT_MAX_ITER,
                        tol: float = DEFAULT_TOL) -> dict:
    """Debiased divergence S_eps = OT(a,b) - OT(a,a)/2 - OT(b,b)/2, clamped at 0.

    Returns {"value", "converged", "cross": entropic_ot result}.  Symmetric by
    construction (canonical argument order).
    """
    if _canonical_order(a, b):
        a, b = b, a
    kwargs = dict(scaling=scaling, max_iter=max_iter, tol=tol)
    cross = entropic_ot(a, b, epsilon, **kwargs)
    self_a = entropic_ot(a, a, epsilon, **kwargs)
    self_b = entropic_ot(b, b, epsilon, **kwargs)
    value = cross["value"] - 0.5 * self_a["value"] - 0.5 * self_b["value"]
    value = max(0.0, value)
    return {
        "value": value,
        "converged": cross["converged"] and self_a["converged"] and self_b["converged"],
        "cross": cross,
    }


def _plan_position_grad(plan: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d/dx of sum_ij plan_ij |x_i - y_j|^2 at fixed plan (envelope theorem)."""
    row = plan.sum(axis=1)
    return 2.0 * (row[:, None] * x - plan @ y)


def sinkhorn_divergence_with_grad(a: EmpiricalMeasure, b: EmpiricalMeasure,
                                  epsilon: float, **kwargs) -> tuple:
    """(S_eps value, dS/d(a.points), converged).

    Gradients w.r.t. the first measure's point positions only; at the Sinkhorn
    fixed point the potentials are stationary, so only the explicit cost
    dependence contributes.  The a-a self term counts x on both sides.
    """
    swapped = _canonical_order(a, b)
    first, second = (b, a) if swapped else (a, b)
    cross = entropic_ot(first, second, epsilon, **kwargs)
    self_a = entropic_ot(a, a, epsilon, **kwargs)
    self_b = entropic_ot(b, b, epsilon, **kwargs)
    value = max(0.0, cross["value"] - 0.5 * self_a["value"] - 0.5 * self_b["value"])
    cross_plan = cross["raw_plan"].T if swapped else cross["raw_plan"]
    grad = _plan_position_grad(cross_plan, a.points, b.points)
    pa = self_a["raw_plan"]
    grad -= 0.5 * (_plan_position_grad(pa, a.points, a.points)
                   + _plan_position_grad(pa.T, a.points, a.points))
    converged = cross["converged"] and self_a["converged"] and self_b["converged"]
    return value, grad, converged


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
    cross = _weighted_entropic_value(mass_p, mass_q, costs, epsilon)
    self_p = _weighted_entropic_value(mass_p, mass_p, costs, epsilon)
    self_q = _weighted_entropic_value(mass_q, mass_q, costs, epsilon)
    return max(0.0, cross - 0.5 * self_p - 0.5 * self_q)


def _weighted_entropic_value(wa: np.ndarray, wb: np.ndarray, costs: np.ndarray,
                             epsilon: float) -> float:
    # Zero-probability support points are dropped: they carry no mass and
    # their log-weights would poison the potentials.
    keep_a = wa > 0
    keep_b = wb > 0
    wa, wb = wa[keep_a], wb[keep_b]
    costs = costs[np.ix_(keep_a, keep_b)]
    log_a, log_b = np.log(wa), np.log(wb)
    f, g, _, _, _ = _sinkhorn_potentials(
        costs, log_a, log_b, epsilon, DEFAULT_SCALING, DEFAULT_MAX_ITER, DEFAULT_TOL)
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - costs) / epsilon
    plan = np.exp(log_plan)
    kl = float(np.sum(plan * (log_plan - log_a[:, None] - log_b[None, :])))
    return float(np.sum(plan * costs)) + epsilon * kl

