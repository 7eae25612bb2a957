"""Distances and angles between categorical distributions, plus training-path analysis.

All quantities derive from the Bhattacharyya coefficient BC(p,q) = sum_k sqrt(p_k q_k):

    bhat_angle  = arccos(BC)                  in [0, pi/2]
    bhat_dist   = -log(BC)
    hellinger   = sqrt(1 - BC)
    fr_distance = 2 * arccos(BC)              geodesic distance on the simplex
    JS(p||q)    = (KL(p||m) + KL(q||m)) / 2,  m = (p+q)/2   (nats; /ln2 for bits)

The sqrt map p -> sqrt(p) embeds the simplex isometrically (up to a factor 2)
into the unit sphere, which is what makes 2*arccos(BC) the geodesic distance
and lets path curvature be read off from chords between sqrt-embedded points.

The perturbation landscape is the fr distance from a base distribution to
its tempered, uniform-mixed perturbations on one fixed 11 x 11 grid
(LANDSCAPE_ALPHAS, LANDSCAPE_BETAS).

Conventions: zero entries contribute 0 to KL terms when the numerator is 0;
reductions use fixed left-to-right summation so results are reproducible.
All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

PROBE_CSV_FIELDS = ("bc", "bhat_angle", "bhat_distance", "hellinger",
                    "js_nats", "js_bits", "fr_distance")

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ProbVector:
    """A point on the categorical simplex (e.g. a next-token distribution)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValidationError("probs must be a non-empty 1-D vector")
        if np.any(probs < 0):
            raise ValidationError("probs must be nonnegative")
        total = float(np.sum(probs))
        if not math.isfinite(total) or abs(total - 1.0) > _NORM_TOL:
            raise ValidationError(f"probs must sum to 1 within {_NORM_TOL}, got {total!r}")
        object.__setattr__(self, "probs", probs)


def _as_prob(p) -> ProbVector:
    return p if isinstance(p, ProbVector) else ProbVector(p)


def _path(checkpoints, least: int) -> tuple:
    """The checkpoints as ProbVectors: at least `least` of them, on one support."""
    cps = tuple(_as_prob(cp) for cp in checkpoints)
    if len(cps) < least:
        raise ValidationError(f"need at least {least} checkpoints, got {len(cps)}")
    if any(cp.probs.size != cps[0].probs.size for cp in cps):
        raise ValidationError("all checkpoints must share one support")
    return cps


def bhattacharyya_coefficient(p, q) -> float:
    """BC(p,q) = sum_k sqrt(p_k q_k), clipped into [0,1] against roundoff."""
    p, q = _as_prob(p), _as_prob(q)
    if p.probs.size != q.probs.size:
        raise ValidationError(f"support mismatch: {p.probs.size} vs {q.probs.size}")
    bc = float(np.sum(np.sqrt(p.probs * q.probs)))
    return min(max(bc, 0.0), 1.0)


def js_divergence_nats(p, q) -> float:
    """Jensen-Shannon divergence in nats; finite for any pair (m_k > 0 wherever needed)."""
    p, q = _as_prob(p), _as_prob(q)
    if p.probs.size != q.probs.size:
        raise ValidationError(f"support mismatch: {p.probs.size} vs {q.probs.size}")
    m = 0.5 * (p.probs + q.probs)

    def _kl(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    return max(0.0, 0.5 * _kl(p.probs) + 0.5 * _kl(q.probs))


def fr_distance(p, q) -> float:
    """Geodesic distance on the simplex: 2*arccos(BC)."""
    return 2.0 * math.acos(bhattacharyya_coefficient(p, q))


def probe_report(p, q) -> dict:
    """All output-distribution probes for one pair, as a flat record.

    Keys follow PROBE_CSV_FIELDS. bhat_distance is +inf for disjoint supports
    (BC = 0); everything else stays finite.
    """
    bc = bhattacharyya_coefficient(p, q)
    angle = math.acos(bc)
    js = js_divergence_nats(p, q)
    return {
        "bc": bc,
        "bhat_angle": angle,
        "bhat_distance": -math.log(bc) if bc > 0 else math.inf,
        "hellinger": math.sqrt(max(0.0, 1.0 - bc)),
        "js_nats": js,
        "js_bits": js / math.log(2),
        "fr_distance": 2.0 * angle,
    }


def probe_report_batch(pairs: Iterable) -> list:
    """probe_report over an iterable of (p, q) pairs."""
    return [probe_report(p, q) for p, q in pairs]


def fr_path_stats(checkpoints) -> dict:
    """Cumulative geodesic path length vs. the endpoint geodesic.

    `checkpoints` is one distribution at each of at least 2 checkpoints, in
    training order and on one support (ProbVectors or probability vectors).

    ratio = L / d_geo >= 1 whenever d_geo > 0.  A stationary or closed path
    (d_geo = 0) reports ratio = NaN with degenerate=True instead of raising,
    so batch sweeps never abort.
    """
    cps = _path(checkpoints, 2)
    segments = [fr_distance(a, b) for a, b in zip(cps[:-1], cps[1:])]
    total = float(sum(segments))
    d_geo = fr_distance(cps[0], cps[-1])
    degenerate = d_geo <= 1e-12
    ratio = math.nan if degenerate else total / d_geo
    return {
        "segment_lengths": segments,
        "cumulative_length": total,
        "endpoint_geodesic": d_geo,
        "ratio": ratio,
        "degenerate": degenerate,
    }


def turning_angles(checkpoints) -> list:
    """Angle between successive displacement chords in the sqrt-embedding.

    `checkpoints` is as in fr_path_stats, at least 3 of them.  One angle per
    interior checkpoint, in [0, pi]; a zero-length segment contributes angle
    0 by convention.
    """
    cps = _path(checkpoints, 3)
    emb = [np.sqrt(cp.probs) for cp in cps]
    chords = [b - a for a, b in zip(emb[:-1], emb[1:])]
    angles = []
    for u, v in zip(chords[:-1], chords[1:]):
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu <= 1e-15 or nv <= 1e-15:
            angles.append(0.0)
            continue
        cosang = float(np.dot(u, v)) / (nu * nv)
        angles.append(math.acos(min(1.0, max(-1.0, cosang))))
    return angles


# ---------- perturbation landscape ----------

# The landscape's 11 x 11 grid: alpha in [0.5, 1.5], beta in [0, 1].
LANDSCAPE_ALPHAS = np.linspace(0.5, 1.5, 11)
LANDSCAPE_BETAS = np.linspace(0.0, 1.0, 11)
LANDSCAPE_METADATA = (
    "perturbation: q(alpha,beta) = (1-beta) * normalise(p**alpha) + beta * uniform; "
    "alpha = inverse-temperature exponent, beta = uniform mixing weight; "
    "value = fr geodesic distance to base"
)


def landscape_grid(base) -> np.ndarray:
    """Geodesic (fr) distances to `base` over the (alpha, beta) perturbation grid.

    Row i, column j holds the distance at (LANDSCAPE_ALPHAS[i],
    LANDSCAPE_BETAS[j]), both read when called; the (1, 0) cell is 0.  See
    LANDSCAPE_METADATA for the declared parametrisation (emitted alongside
    any serialised grid).  Each alpha is positive and each beta in [0, 1], so
    every cell is a distribution.
    """
    base = _as_prob(base)
    k = base.probs.size
    # One power call per alpha: an array exponent rounds differently.
    powered = np.array([np.power(base.probs, a) for a in LANDSCAPE_ALPHAS])
    tempered = powered / powered.sum(axis=1)[:, None]
    betas = LANDSCAPE_BETAS[None, :, None]
    q = (1.0 - betas) * tempered[:, None, :] + betas * np.full(k, 1.0 / k)
    bc = np.clip(np.sqrt(base.probs * q).sum(axis=2), 0.0, 1.0)
    return 2.0 * np.array([math.acos(c) for c in bc.ravel()]).reshape(bc.shape)
