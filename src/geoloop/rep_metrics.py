"""Representation-space probes: Gaussian (Fréchet) distance and spectrum measures.

Per-sequence hidden summaries are treated as weighted point clouds
(EmpiricalMeasure); a Gaussian fit of such a cloud supports the squared
Fréchet distance

    d_F^2 = |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}),

and the covariance spectrum supports

    effrank = exp(-sum p_i log p_i),   PR = (sum l_i)^2 / sum l_i^2,

with p_i = l_i / sum l_j.  Covariances are unbiased (divide by B-1).

The cross term tr (S1^{1/2} S2 S1^{1/2})^{1/2} is the nuclear norm of
F1 F2^T for any factors with Fi^T Fi = Si (Dowson and Landau 1982).  A fitted
cloud's factor is its centred points over sqrt(B - 1), so the distance
between two fits takes one SVD of a B x B product and no matrix square root.
Only a summary built from an explicit covariance takes psd_sqrt (symmetric
eigendecomposition, eigenvalues clamped at zero) for its factor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

_SYM_TOL = 1e-9
_EIG_FLOOR = -1e-9

# Roundoff bound on d_F^2.  A fit's factor is its centred points, so the
# distance between two fits is off by eps-sized terms only.  An explicit
# covariance's factor is psd_sqrt(S): an eigenvalue of S that should be 0
# comes out as large as eps * |S|, so its square root puts up to
# sqrt(eps * |S|) into the factor, and up to
# sqrt(eps * |S1| |S2|) <= sqrt(eps) * (tr S1 + tr S2) into tr(cross), once per
# dimension.  The bound covers that worse case.
_FRECHET_ROUNDOFF = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class GaussianSummary:
    """Mean and symmetric PSD covariance of a point cloud in R^d, with a
    factor F (k x d) with F^T F = cov: fit_gaussian passes the centred points
    over sqrt(B - 1); without one, F is psd_sqrt(cov).  A summary constructed
    directly has its covariance checked and keeps the PSD check's ascending
    eigenvalues; fit_gaussian's skips the checks and takes them on first read."""

    mean: np.ndarray
    cov: np.ndarray
    factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValidationError("cov must be d x d for a d-vector mean")
        if not np.all(np.abs(cov - cov.T) <= _SYM_TOL):
            raise ValidationError("covariance must be symmetric within 1e-9")
        sym = 0.5 * (cov + cov.T)
        eigvals = np.linalg.eigvalsh(sym)
        if np.min(eigvals) < _EIG_FLOOR * max(1.0, float(np.max(np.abs(eigvals)))):
            raise ValidationError("covariance must be PSD (eigenvalues >= -1e-9)")
        if self.factor is None:
            factor = psd_sqrt(sym)
        else:
            factor = np.asarray(self.factor, dtype=float)
            if factor.ndim != 2 or factor.shape[1] != mean.size:
                raise ValidationError("factor must be k x d for a d-vector mean")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", sym)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "eigenvalues", eigvals)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the covariance."""
        return np.linalg.eigvalsh(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def spectrum(self) -> "Spectrum":
        """Descending covariance eigenvalues, clamped at 0."""
        return Spectrum(np.clip(self.eigenvalues[::-1], 0.0, None))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight point cloud of per-sequence summaries (one row each)."""

    points: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape[0] < 1:
            raise ValidationError("measure needs at least one point")
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.size, 1.0 / self.size)


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing nonnegative eigenvalues of a covariance."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValidationError("spectrum must be a non-empty 1-D vector")
        if (lam < 0).any():
            raise ValidationError("eigenvalues must be nonnegative")
        if (np.diff(lam) > 1e-12 * max(1.0, float(lam[0]))).any():
            raise ValidationError("eigenvalues must be sorted nonincreasing")
        object.__setattr__(self, "eigenvalues", lam)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, eigenvalues clamped at 0."""
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


class FrechetClampWarning(UserWarning):
    """frechet_distance clamped a roundoff-negative value to 0."""


def frechet_distance(a: GaussianSummary, b: GaussianSummary) -> float:
    """Squared Fréchet distance between two Gaussian summaries (>= 0, clamped).

    Equal summaries (equal means and factors: one cloud fitted twice) give
    exactly 0.  Otherwise a negative value within roundoff of
    d * (tr S1 + tr S2) is clamped to 0 with a FrechetClampWarning; one
    beyond it raises.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.factor, b.factor):
        return 0.0
    diff = a.mean - b.mean
    # tr (S1^{1/2} S2 S1^{1/2})^{1/2} is the sum of the singular values of
    # F1 F2^T.  Taking them directly avoids a square root of the product's
    # eigenvalues, which turns an eps-sized error on a near-zero one into a
    # sqrt(eps)-sized error (d_F^2(a, a) off by ~1e-7 at tr S ~ 100).
    cross = np.linalg.svd(a.factor @ b.factor.T, compute_uv=False)
    val = float(diff @ diff + a.cov.trace() + b.cov.trace() - 2.0 * cross.sum())
    if val < -_FRECHET_ROUNDOFF * a.dim * float(a.cov.trace() + b.cov.trace()):
        raise ValidationError(f"Fréchet distance {val} too negative to be roundoff")
    if val < 0.0:
        warnings.warn("clamped slightly negative Fréchet distance to 0",
                      FrechetClampWarning)
        val = 0.0
    return val


def effective_dims(s: Spectrum) -> dict:
    """Effective rank (entropy-based) and participation ratio of a spectrum."""
    s = s if isinstance(s, Spectrum) else Spectrum(s)
    lam = s.eigenvalues
    total = float(lam.sum())
    if total <= 0:
        raise ValidationError("spectrum must have at least one positive eigenvalue")
    p = lam / total
    pos = p[p > 0]
    effrank = math.exp(-float((pos * np.log(pos)).sum()))
    pr = total * total / float((lam * lam).sum())
    return {"effrank": effrank, "participation_ratio": pr}


def fit_gaussian(measure: EmpiricalMeasure) -> GaussianSummary:
    """Unbiased Gaussian fit (mean, covariance with B-1 denominator, factor the
    centred points over sqrt(B-1)); needs B >= 2 and finite points.

    numpy mirrors one triangle of an array times its own transpose, so the
    covariance is exactly symmetric, and it is PSD by construction: the fit
    skips GaussianSummary's checks and takes its eigenvalues on first read.
    """
    if measure.size < 2:
        raise ValidationError("Gaussian fit needs at least 2 points")
    pts = measure.points
    if not np.isfinite(pts).all():
        raise ValidationError("Gaussian fit needs finite points")
    mean = pts.mean(axis=0)
    centred = pts - mean
    cov = centred.T @ centred / (measure.size - 1)
    fit = object.__new__(GaussianSummary)
    fit.__dict__.update(mean=mean, cov=cov, factor=centred / math.sqrt(measure.size - 1))
    return fit


def covariance_spectrum(measure: EmpiricalMeasure) -> Spectrum:
    """Descending eigenvalues of the unbiased covariance of a measure."""
    return fit_gaussian(measure).spectrum()

