"""Pre-training principle-set evaluation: ΔNLL, AUC, MI margins, Sufficiency Index.

Signals per candidate set (positives shared, negatives under test):

    delta_nll  nll_without - nll_with, bits/token; perplexity ratio 2^{-delta}
    auc        Mann-Whitney Pr[s+ > s-] + Pr[s+ = s-]/2 by exhaustive pair
               counting over per-principle delta-NLL scores
    margins    diagonal score margins: how much a gold continuation prefers
               its own principle over the rest of the same pool (positives),
               and how much its index-paired negative beats the other
               negatives (a leaky negative scores high here)
    mi_eff     positive margin - negative margin
    si         w_b * bits + w_m * mi_eff + w_s * (2*auc - 1)   (raw mode)

The z-scored SI variant replaces each component with a robust z-score
((x - median) / MAD, zero when MAD is zero) across a cohort of candidate
sets; both modes are reported because they answer different questions (raw
reproduces absolute bookkeeping, z-scored ranks a cohort).

Each task item is scored with one table: its gold under every positive,
every negative and no principle.  Every report, measured, replayed or read
from external score files, is assembled by `report_from_components`.

Negatives pair with positives by index (cyclically when counts differ),
mirroring pools where each negative was generated from one positive; the
pairing is what lets a lexically leaky negative inherit its positive's
association and show up in the negative margin and the leaky-flag scan.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import mi
from .errors import ValidationError

DEFAULT_WEIGHTS = (0.6, 0.3, 0.1)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Principle:
    pid: str
    text: str          # free text, or a space-separated token-id pattern
    tokens: tuple = ()

    @staticmethod
    def parse(pid: str, text: str) -> "Principle":
        parts = text.split()
        if parts and all(p.lstrip("-").isdigit() for p in parts):
            return Principle(pid, text, tuple(int(p) for p in parts))
        return Principle(pid, text, ())


@dataclass(frozen=True)
class PrincipleSet:
    """Named positive and negative principle pools with unique ids."""

    name: str
    positives: tuple
    negatives: tuple

    def __post_init__(self):
        if len(self.positives) < 1:
            raise ValidationError("a principle set needs at least one positive")
        ids = [p.pid for p in self.positives + self.negatives]
        if len(set(ids)) != len(ids):
            raise ValidationError("principle ids must be unique")


def parse_principle_file(path) -> PrincipleSet:
    """Key-value list layout: optional `name:` line, then `positives:` and
    `negatives:` sections of `- <string>` items."""
    name = "unnamed"
    sections = {"positives": [], "negatives": []}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("name:"):
                name = line.split(":", 1)[1].strip()
            elif line in ("positives:", "negatives:"):
                current = line[:-1]
            elif line.startswith("- "):
                if current is None:
                    raise ValidationError(
                        f"{path}:{lineno}: item {line!r} outside positives:/negatives:")
                sections[current].append(line[2:].strip())
            else:
                raise ValidationError(f"{path}:{lineno}: cannot parse {line!r}")
    positives = tuple(Principle.parse(f"pos{i}", t)
                      for i, t in enumerate(sections["positives"]))
    negatives = tuple(Principle.parse(f"neg{i}", t)
                      for i, t in enumerate(sections["negatives"]))
    if not positives:
        raise ValidationError(f"{path}: no positives found")
    return PrincipleSet(name, positives, negatives)


# ---------- scalar signals ----------

def delta_nll(nll_without: float, nll_with: float) -> dict:
    """ΔNLL in bits/token and the induced perplexity ratio 2^{-Δ}."""
    if not (math.isfinite(nll_without) and math.isfinite(nll_with)):
        raise ValidationError("NLL inputs must be finite")
    delta = nll_without - nll_with
    return {"delta_bits": delta, "perplexity_ratio": 2.0 ** (-delta)}


def mann_whitney_auc(pos_scores, neg_scores) -> float:
    """Pr[s+ > s-] + Pr[s+ = s-]/2 by exhaustive pair counting."""
    pos = [float(s) for s in pos_scores]
    neg = [float(s) for s in neg_scores]
    if not pos or not neg:
        raise ValidationError("both score lists must be non-empty")
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def mi_effective(pos_margin: float, neg_margin: float) -> float:
    """Selectivity margin: positive minus negative diagonal margin."""
    if not (math.isfinite(pos_margin) and math.isfinite(neg_margin)):
        raise ValidationError("margins must be finite")
    return pos_margin - neg_margin


def robust_zscores(values) -> np.ndarray:
    """(x - median) / MAD, with MAD = 0 mapping every score to 0."""
    arr = np.asarray(values, dtype=float)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    if mad == 0.0:
        return np.zeros_like(arr)
    return (arr - med) / mad


def sufficiency_index(bits, mi_eff, auc, weights=DEFAULT_WEIGHTS, mode: str = "raw"):
    """Weighted combination of the three sufficiency components.

    raw mode takes scalars (or arrays elementwise); zscored mode takes the
    whole cohort as arrays (length >= 2) and robust-z-scores each component
    across it before weighting.
    """
    w_b, w_m, w_s = (float(w) for w in weights)
    if w_b < 0 or w_m < 0 or w_s < 0:
        raise ValidationError("weights must be nonnegative")
    if mode == "raw":
        bits_a = np.asarray(bits, dtype=float)
        mi_a = np.asarray(mi_eff, dtype=float)
        sep = 2.0 * np.asarray(auc, dtype=float) - 1.0
        out = w_b * bits_a + w_m * mi_a + w_s * sep
        return float(out) if out.ndim == 0 else out
    if mode == "zscored":
        bits_a = np.atleast_1d(np.asarray(bits, dtype=float))
        mi_a = np.atleast_1d(np.asarray(mi_eff, dtype=float))
        auc_a = np.atleast_1d(np.asarray(auc, dtype=float))
        if bits_a.size < 2:
            raise ValidationError("zscored mode needs a cohort of at least 2")
        return (w_b * robust_zscores(bits_a) + w_m * robust_zscores(mi_a)
                + w_s * robust_zscores(2.0 * auc_a - 1.0))
    raise ValidationError(f"unknown SI mode {mode!r}")


def leaky_negative_flags(per_negative_delta_nll: dict) -> dict:
    """Negatives whose ΔNLL is positive: conditioning on them helps the gold.

    Returns {"flagged_ids", "count", "delta_nll_bits": each flagged id's ΔNLL}.
    """
    flagged = sorted(pid for pid, d in per_negative_delta_nll.items() if d > 0)
    return {"flagged_ids": flagged, "count": len(flagged),
            "delta_nll_bits": {pid: per_negative_delta_nll[pid] for pid in flagged}}


# ---------- full evaluation ----------

@dataclass(frozen=True)
class SufficiencyReport:
    name: str
    delta_nll_median: float        # bits/token
    perplexity_ratio: float
    auc: float
    mi_diag_margin_pos: float
    mi_diag_margin_neg: float
    mi_lb_pos_bits: float
    mi_lb_neg_bits: float
    mi_effective: float
    si: float
    weights: tuple = DEFAULT_WEIGHTS
    leaky: dict | None = None
    si_zscored: float | None = None

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "delta_nll_median_bits": self.delta_nll_median,
            "perplexity_ratio": self.perplexity_ratio,
            "perplexity_drop_pct": (1.0 - self.perplexity_ratio) * 100.0,
            "auc": self.auc,
            "mi_diag_margin_pos": self.mi_diag_margin_pos,
            "mi_diag_margin_neg": self.mi_diag_margin_neg,
            "mi_lb_pos_bits": self.mi_lb_pos_bits,
            "mi_lb_neg_bits": self.mi_lb_neg_bits,
            "mi_effective": self.mi_effective,
            "si": self.si,
            "si_zscored": self.si_zscored,
            "weights": list(self.weights),
            "leaky": self.leaky,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def report_from_components(name: str, bits: float, auc: float, margin_pos: float,
                           margin_neg: float, lb_pos_bits: float = math.nan,
                           lb_neg_bits: float = math.nan,
                           weights=DEFAULT_WEIGHTS, *, leaky: dict | None = None) -> SufficiencyReport:
    """The report of measured components: mi_eff, perplexity ratio and raw SI
    follow from them.  Both evaluation paths and the replay build it here;
    only the policy path has a leaky-negative scan."""
    mie = mi_effective(margin_pos, margin_neg)
    return SufficiencyReport(
        name=name,
        delta_nll_median=bits,
        perplexity_ratio=delta_nll(bits, 0.0)["perplexity_ratio"],
        auc=auc,
        mi_diag_margin_pos=margin_pos,
        mi_diag_margin_neg=margin_neg,
        mi_lb_pos_bits=lb_pos_bits,
        mi_lb_neg_bits=lb_neg_bits,
        mi_effective=mie,
        si=sufficiency_index(bits, mie, auc, weights, "raw"),
        weights=tuple(weights),
        leaky=leaky,
    )


def _margin_rows(scores: np.ndarray, true_cols) -> np.ndarray:
    """Per-item margin: own-column score minus the mean of the other columns."""
    n, m = scores.shape
    if m < 2:
        raise ValidationError("margins need at least two principles in the pool")
    out = np.zeros(n)
    for i, j in enumerate(true_cols):
        others = [c for c in range(m) if c != j]
        out[i] = scores[i, j] - scores[i, others].mean()
    return out


def _bound_bits(scores: np.ndarray, true_cols, k: int,
                rng: np.random.Generator) -> float:
    """Row contrastive bound (bits) with K uniform shadow columns per item."""
    n, m = scores.shape
    k = min(k, m - 1)
    if k < 1:
        return math.nan
    block = np.zeros((n, k + 1))
    for i, j in enumerate(true_cols):
        others = [c for c in range(m) if c != j]
        picked = rng.choice(len(others), size=k, replace=False)
        block[i, 0] = scores[i, j]
        for slot, c in enumerate(picked):
            block[i, slot + 1] = scores[i, others[int(c)]]
    return mi.infonce_bound(block) / LN2


def evaluate_principle_set(policy, task, pset: PrincipleSet, k: int = 2, *,
                           weights=DEFAULT_WEIGHTS, seed: int = 0) -> SufficiencyReport:
    """Score a principle set against a policy on the task's gold continuations.

    Deterministic given the seed.  The policy must carry the associations the
    signals probe (i.e. be trained/warm-started on the task), exactly as an
    LLM brings its pretraining to the same measurement.
    """
    if not pset.negatives:
        raise ValidationError("evaluation needs at least one negative")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
    items = [(item.prompt, item.gold) for item in task.items]
    if not items:
        raise ValidationError("task sample is empty")
    pos_by_pid = {p.pid: i for i, p in enumerate(task.principles)}
    true_pos_idx = [pos_by_pid[item.principle_id] % len(pset.positives)
                    for item in task.items]

    # One table per item: its gold under every positive, every negative and
    # no principle.
    n_pos = len(pset.positives)
    principles = pset.positives + pset.negatives
    sums = np.array([policy.multi_context_logprob(
        [(prompt, p.tokens) for p in principles] + [(prompt, ())], gold)
        for prompt, gold in items])
    n_tok = np.array([max(1, len(gold)) for _, gold in items], dtype=float)
    scores = sums / n_tok[:, None]
    pos_scores, neg_scores, without = scores[:, :n_pos], scores[:, n_pos:-1], scores[:, -1]

    # Predictive information: condition on the true positive vs. no principle.
    with_lp = sums[np.arange(len(items)), true_pos_idx]
    delta_bits = float(np.median((with_lp - sums[:, -1]) / n_tok / LN2))

    # Per-principle delta-NLL scores for separation and the leaky scan.
    per_principle_pos = {p.pid: float(np.median((pos_scores[:, j] - without) / LN2))
                         for j, p in enumerate(pset.positives)}
    per_principle_neg = {p.pid: float(np.median((neg_scores[:, j] - without) / LN2))
                         for j, p in enumerate(pset.negatives)}
    auc = mann_whitney_auc(list(per_principle_pos.values()),
                           list(per_principle_neg.values()))

    margin_pos = float(np.mean(_margin_rows(pos_scores, true_pos_idx)))
    true_neg_idx = [i % len(pset.negatives) for i in true_pos_idx]
    if len(pset.negatives) >= 2:
        margin_neg = float(np.mean(_margin_rows(neg_scores, true_neg_idx)))
        lb_neg = _bound_bits(neg_scores, true_neg_idx, k, rng)
    else:
        margin_neg, lb_neg = 0.0, math.nan
    lb_pos = _bound_bits(pos_scores, true_pos_idx, k, rng)

    return report_from_components(pset.name, delta_bits, auc, margin_pos, margin_neg,
                                  lb_pos, lb_neg, weights,
                                  leaky=leaky_negative_flags(per_principle_neg))


def evaluate_from_score_files(name: str, pos_matrix: mi.ScoreMatrix,
                              neg_matrix: mi.ScoreMatrix, nll_rows, k: int = 2, *,
                              weights=DEFAULT_WEIGHTS, seed: int = 0) -> SufficiencyReport:
    """Evaluation over externally produced scores (e.g. real LLM exports).

    `pos_matrix`/`neg_matrix` are items-by-principles score matrices where
    item i's true (or index-paired) principle sits in column i mod M.
    `nll_rows` are (nll_without_bits, nll_with_bits) per item.
    """
    pos = pos_matrix.scores
    neg = neg_matrix.scores
    if pos.shape[0] != neg.shape[0]:
        raise ValidationError("positive and negative matrices must share items")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
    deltas = [delta_nll(a, b)["delta_bits"] for a, b in nll_rows]
    if not deltas:
        raise ValidationError("need at least one NLL row")
    delta_bits = float(np.median(deltas))
    true_pos = [i % pos.shape[1] for i in range(pos.shape[0])]
    true_neg = [i % neg.shape[1] for i in range(neg.shape[0])]
    margin_pos = float(np.mean(_margin_rows(pos, true_pos)))
    margin_neg = float(np.mean(_margin_rows(neg, true_neg)))
    auc = mann_whitney_auc(pos[np.arange(pos.shape[0]), true_pos],
                           neg[np.arange(neg.shape[0]), true_neg])
    return report_from_components(name, delta_bits, auc, margin_pos, margin_neg,
                                  _bound_bits(pos, true_pos, k, rng),
                                  _bound_bits(neg, true_neg, k, rng), weights)
