"""Score matrices, row/column InfoNCE, contrastive MI bounds, diagnostics.

A score matrix L, a float array, collects normalised sequence log-scores
between completions (rows) and principle-conditioned prompts (columns); the
score functions below take it as an array.  On a square matrix:

    row loss  = -(1/N) sum_i log softmax_j(L_i.)|_{j=i}
    col loss  = -(1/N) sum_j log softmax_i(L_.j)|_{i=j}
    auxiliary = lam_row * row + lam_col * col
    diag stat = (mean row log-softmax diagonal + mean col log-softmax diagonal) / 2

On an (N, K+1) candidate block with the positive in column 0, the contrastive
bound is log(K+1) minus the empirical InfoNCE loss; it can never exceed
log(K+1) and goes negative for worse-than-chance association (the sign is
kept).  clean_mi_bounds(row_scores, col_scores, clean_mask) reads K from the
blocks' width and gives the row and column bounds, not their difference.
Shadow candidates are drawn uniformly from the positive pool without
replacement, excluding the true principle.

A score CSV holds one (N, M) matrix under a header naming its
normalisation: raw_sum (plain log-likelihood sum), length_mean (divide by
token count) or fisher_weighted (token weights proportional to p_t(1-p_t)).
Every score geoloop computes, and every CSV it writes, is length_mean; the
other two labels are accepted on external score CSVs, whose reader checks
the label and returns the bare array.  Row standardisation
((L - mu_i)/sigma_i) exists solely for the reward channel's z statistic and
never touches the auxiliary loss; a constant row (sigma_i = 0) standardises
to all zeros.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

NORMALISATIONS = ("raw_sum", "length_mean", "fisher_weighted")


def _log_softmax(arr: np.ndarray, axis: int) -> np.ndarray:
    shifted = arr - arr.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


# ---------- InfoNCE on square matrices ----------

def infonce_losses(scores: np.ndarray) -> dict:
    """Row and column InfoNCE losses of a square score array (both >= 0),
    the diagonal statistic (`diag_mi`) and the row and column softmaxes, from
    one max-shift, exponential and partition per direction."""
    n, m = scores.shape
    if n != m:
        raise ValidationError(f"InfoNCE needs a square matrix, got {n}x{m}")
    out = {}
    terms = []
    for name, axis in (("row", 1), ("col", 0)):
        shifted = scores - scores.max(axis=axis, keepdims=True)
        mass = np.exp(shifted)
        total = mass.sum(axis=axis, keepdims=True)
        terms.append(float((shifted.diagonal() - np.log(total).ravel()).mean()))
        out[f"{name}_loss"] = max(0.0, -terms[-1])
        out[f"{name}_softmax"] = mass / total
    out["diag_mi"] = min(0.0, 0.5 * (terms[0] + terms[1]))
    return out


def diag_mi(scores: np.ndarray) -> float:
    """Diagonal PMI-like statistic: mean row/col log-softmax diagonal, halved.

    Always <= 0, with equality only in the 1x1 case.
    """
    return infonce_losses(scores)["diag_mi"]


def shaping_term(scores: np.ndarray, quantile_mask, weight: float) -> float:
    """weight * mean over masked rows of the centred diagonal cross-entropy.

    The statistic is e_i = -log softmax_row(L)|_{ii} centred on the full-batch
    mean, so any constant shift of the scores cancels and the term stays
    gradient-stable.  Empty mask or zero weight contribute nothing.
    """
    if weight < 0:
        raise ValidationError("shaping weight must be nonnegative")
    if weight == 0.0:
        return 0.0
    n, m = scores.shape
    if n != m:
        raise ValidationError("shaping term needs a square matrix")
    mask = np.asarray(quantile_mask, dtype=bool)
    if mask.shape != (n,):
        raise ValidationError("mask length must equal the row count")
    if not mask.any():
        return 0.0
    diag = np.arange(n)
    cross_entropy = -_log_softmax(scores, axis=1)[diag, diag]
    centred = cross_entropy - cross_entropy.mean()
    return float(weight * centred[mask].mean())


# ---------- contrastive bounds with shadow candidates ----------

def draw_shadows(pool_ids, true_id, k: int, rng: np.random.Generator) -> tuple:
    """K uniform shadow ids from the positive pool, the true one excluded,
    without replacement when possible.

    A pool with fewer than k alternatives falls back to replacement.
    """
    if k < 1:
        raise ValidationError("need at least one shadow")
    candidates = [pid for pid in pool_ids if pid != true_id]
    if not candidates:
        raise ValidationError("shadow pool contains no alternative to the true principle")
    picked = rng.choice(len(candidates), size=k, replace=len(candidates) < k)
    return tuple(candidates[int(i)] for i in picked)


def shadow_candidates(rng: np.random.Generator, true_cols, m: int, k: int) -> np.ndarray:
    """(n, K+1) columns of range(m): each row's true column, then K shadows.

    The picks are those of one rng.choice(m - 1, size=k) per row, in row
    order (with replacement only when m - 1 < k), over the other columns:
    draw_shadows' draw with the columns as the pool.  They come from a
    single rng.integers call.  Without replacement, choice runs Floyd's
    sampling (a draw on [0, j] for j = m-1-k .. m-2, j itself when the draw
    is already taken), then shuffles the k picks (a draw on [0, i] for
    i = k-1 .. 1).  Those spans do not depend on the values drawn, and an
    array of highs makes the same bounded draws as the scalar calls, in the
    same order; the clash fix-ups and the swaps are then column operations.
    (Above 10 000 columns with k above a fiftieth of them, choice switches to
    a tail shuffle; these picks stay Floyd's, just as uniform.)
    """
    true = np.asarray(true_cols, dtype=np.int64)[:, None]
    n, pool = len(true), m - 1
    if pool < k:
        picked = rng.integers(0, pool, size=(n, k))
    else:
        spans = np.concatenate([np.arange(pool - k + 1, pool + 1), np.arange(k, 1, -1)])
        draws = rng.integers(0, spans, size=(n, 2 * k - 1))
        picked = draws[:, :k].copy()
        for t in range(1, k):
            clash = (picked[:, :t] == picked[:, t:t + 1]).any(axis=1)
            picked[clash, t] = pool - k + t
        rows = np.arange(n)
        for i, swap in zip(range(k - 1, 0, -1), draws[:, k:].T):
            picked[rows, i], picked[rows, swap] = picked[rows, swap], picked[rows, i]
    return np.concatenate([true, picked + (picked >= true)], axis=1)


def infonce_bound(candidate_scores: np.ndarray) -> float:
    """log(K+1) - InfoNCE loss over (n, K+1) candidate scores with the
    positive in column 0; ceiling log(K+1).

    Equal scores give exactly 0 (chance level); the value may be negative and
    is reported as-is.
    """
    scores = np.atleast_2d(np.asarray(candidate_scores, dtype=float))
    n, cands = scores.shape
    if cands < 2:
        raise ValidationError("need the positive plus at least one shadow")
    log_sm = _log_softmax(scores, axis=1)
    loss = float(-log_sm[:, 0].mean())
    return math.log(cands) - loss


def clean_mi_bounds(row_scores, col_scores, clean_mask) -> dict:
    """Row/column contrastive bounds over the clean subset, in nats.

    Both (n, K+1) candidate blocks hold the positive in column 0; K is read
    from their width, which must be at least 2.
    row_scores[i]: completion i scored under {true principle, K shadows}.
    col_scores[i]: {true completion, K shadow completions} scored under
    completion i's own rendered prompt.

    Returns {"row_bound", "col_bound", "clean_count"}; with zero clean rows
    the bounds are NaN and clean_count is 0.
    """
    row_scores = np.atleast_2d(np.asarray(row_scores, dtype=float))
    col_scores = np.atleast_2d(np.asarray(col_scores, dtype=float))
    if row_scores.shape != col_scores.shape:
        raise ValidationError("row and column candidate blocks must align")
    if row_scores.shape[1] < 2:
        raise ValidationError("candidate blocks need the positive plus at least one shadow")
    mask = np.asarray(clean_mask, dtype=bool)
    if mask.shape != (row_scores.shape[0],):
        raise ValidationError("clean mask length must match the batch")
    count = int(mask.sum())
    if count == 0:
        return {"row_bound": math.nan, "col_bound": math.nan, "clean_count": 0}
    return {"row_bound": infonce_bound(row_scores[mask]),
            "col_bound": infonce_bound(col_scores[mask]), "clean_count": count}


def row_positive_logsoftmax(scores: np.ndarray) -> np.ndarray:
    """z_i = log softmax over each row's candidates at the positive (column 0).

    Each row is first scaled to (L - mu_i) / sigma_i, with its mean and
    population std, and a constant row (sigma_i = 0) to all zeros; this is
    the reward channel's input and is never fed back into the auxiliary loss.
    """
    # The sums and divisions of scores.mean and scores.std, each taken once.
    n = scores.shape[1]
    centred = scores - np.add.reduce(scores, axis=1, keepdims=True) / n
    sigma = np.sqrt(np.add.reduce(centred * centred, axis=1) / n)
    scaled = centred / np.where(sigma > 0, sigma, 1.0)[:, None]
    scaled[sigma == 0] = 0.0
    return _log_softmax(scaled, axis=1)[:, 0]


# ---------- CSV round-trip (also the ingestion path for external scores) ----------

def write_score_csv(scores: np.ndarray, path) -> None:
    """The (N, M) float array `scores` as a length_mean score CSV."""
    n, m = scores.shape
    with open(path, "w", newline="") as fh:
        fh.write(f"normalisation=length_mean,N={n},M={m}\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in scores.tolist()))


def read_score_csv(path) -> np.ndarray:
    """The (N, M) float array of a score CSV, refused unless its body has the
    header's shape, every entry is finite and the label is in NORMALISATIONS."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            fields = dict(part.split("=") for part in header.split(","))
            # Exactly these three fields, each once.
            if header.count(",") != 2 or fields.keys() != {"normalisation", "N", "M"}:
                raise ValueError(header)
            normalisation = fields["normalisation"]
            n, m = int(fields["N"]), int(fields["M"])
        except ValueError as exc:
            raise ValidationError(f"score CSV {path}: bad header {header!r}") from exc
        for name, value in (("N", n), ("M", m)):
            if value < 1:
                raise ValidationError(
                    f"score CSV {path}: header {name} must be at least 1, got {value}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    rows.append(np.array([float(v) for v in line.strip().split(",")]).reshape(m))
                except ValueError as exc:
                    raise ValidationError(f"score CSV {path}, line {lineno}: {exc}") from exc
    scores = np.asarray(rows, dtype=float)
    if scores.shape != (n, m):
        raise ValidationError(f"score CSV {path}: body {scores.shape} does not match "
                              f"header ({n},{m})")
    if not np.all(np.isfinite(scores)):
        raise ValidationError(f"score CSV {path}: score matrix entries must be finite")
    if normalisation not in NORMALISATIONS:
        raise ValidationError(f"score CSV {path}: unknown normalisation {normalisation!r}")
    return scores
