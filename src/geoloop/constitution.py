"""Pre-training principle-set evaluation: ΔNLL, AUC, MI margins, Sufficiency Index.

Signals per candidate set (positives shared, negatives under test):

    delta_nll  nll_without - nll_with, bits/token; perplexity ratio 2^{-delta}
    auc        Mann-Whitney Pr[s+ > s-] + Pr[s+ = s-]/2 by exhaustive pair
               counting (what s is depends on the mode, below)
    margins    diagonal score margins: how much a gold continuation prefers
               its own principle over the rest of the same pool (positives),
               and how much its index-paired negative beats the other
               negatives (a leaky negative scores high here)
    mi_eff     positive margin - negative margin
    si         w_b * bits + w_m * mi_eff + w_s * (2*auc - 1)   (sufficiency_index)

The z-scored SI (zscored_sufficiency_index) replaces each component with a
robust z-score ((x - median) / MAD, zero when MAD is zero) across a cohort of
candidate sets; both are reported because they answer different questions
(raw reproduces absolute bookkeeping, z-scored ranks a cohort).

A principle is its token pattern; a principle file holds nothing else.
AUC compares different scores in each eval mode: on token sets, each
positive's median ΔNLL bits against each negative's; on `--scores`, each
item's score at its true positive column against its score at its paired
negative column; on `--components`, it is the AUC given.  SI values from
different modes therefore do not compare.

All task items are scored with one table: each item's gold under its
prompt with every positive, every negative and no principle; each prompt and
principle is bagged once.  Every report, measured, replayed or read
from external score files, is assembled by `report_from_components`.  The
replay's components file and the external NLL file are read here too
(`read_components`, `read_nll_csv`), beside the functions their rows feed.

Negatives pair with positives by index (cyclically when counts differ),
mirroring pools where each negative was generated from one positive; the
pairing is what lets a lexically leaky negative inherit its positive's
association and show up in the negative margin and the leaky-flag scan.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import mi
from .errors import ValidationError
from .policy import ToyPolicy, mle_pretrain, transition_counts
from .task import gold_items

DEFAULT_WEIGHTS = (0.6, 0.3, 0.1)
# K, the uniform shadow columns per item of the contrastive bounds.
SHADOWS = 2

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Principle:
    pid: str
    tokens: tuple      # the token ids of its pattern


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
    `negatives:` sections of `- <pattern>` items, each pattern one or more
    space-separated token ids (an optional `-` and decimal digits); any other
    item, an empty one too, is refused naming its line."""
    name = "unnamed"
    sections = {"positives": [], "negatives": []}
    current = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("name:"):
                name = line.split(":", 1)[1].strip()
            elif line in ("positives:", "negatives:"):
                current = line[:-1]
            elif line == "-" or line.startswith("- "):
                if current is None:
                    raise ValidationError(
                        f"{path}:{lineno}: item {line!r} outside positives:/negatives:")
                item = line[1:].strip()
                parts = item.split()
                # One sign and decimal digits: what int() parses, unlike
                # isdigit's superscripts or a second sign.
                if not parts or not all(p.removeprefix("-").isdecimal() for p in parts):
                    raise ValidationError(f"{path}:{lineno}: {item!r} is not a token pattern")
                sections[current].append(tuple(int(p) for p in parts))
            else:
                raise ValidationError(f"{path}:{lineno}: cannot parse {line!r}")
    positives = tuple(Principle(f"pos{i}", t) for i, t in enumerate(sections["positives"]))
    negatives = tuple(Principle(f"neg{i}", t) for i, t in enumerate(sections["negatives"]))
    if not positives:
        raise ValidationError(f"{path}: no positives found")
    return PrincipleSet(name, positives, negatives)


# ---------- scalar signals ----------

def delta_nll(nll_without: float, nll_with: float) -> dict:
    """ΔNLL in bits/token and the induced perplexity ratio 2^{-Δ}, inf past
    the float range (Δ at or below about -1024 bits)."""
    if not (math.isfinite(nll_without) and math.isfinite(nll_with)):
        raise ValidationError("NLL inputs must be finite")
    delta = nll_without - nll_with
    try:
        ratio = 2.0 ** (-delta)
    except OverflowError:
        ratio = math.inf
    return {"delta_bits": delta, "perplexity_ratio": ratio}


def mann_whitney_auc(pos_scores, neg_scores) -> float:
    """Pr[s+ > s-] + Pr[s+ = s-]/2 by exhaustive pair counting."""
    pos = np.asarray(pos_scores, dtype=float)[:, None]
    neg = np.asarray(neg_scores, dtype=float)
    if not pos.size or not neg.size:
        raise ValidationError("both score lists must be non-empty")
    wins = int(np.count_nonzero(pos > neg))
    ties = int(np.count_nonzero(pos == neg))
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def mi_effective(pos_margin: float, neg_margin: float) -> float:
    """Selectivity margin: positive minus negative diagonal margin."""
    if not (math.isfinite(pos_margin) and math.isfinite(neg_margin)):
        raise ValidationError("margins must be finite")
    return pos_margin - neg_margin


def median(values) -> np.ndarray:
    """np.median(values, axis=0) to the bit, from a sort, without the numpy.ma
    import np.median loads: the middle order statistic of an odd count, and
    (lower + upper) / 2 of an even one, the sum and halving of np.median's
    mean of the two.  NaN wherever the reduced slice holds a NaN, as there."""
    ordered = np.sort(values, axis=0)
    n = ordered.shape[0]
    mid = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return np.where(np.isnan(ordered[-1]), np.nan, mid)


def robust_zscores(values) -> np.ndarray:
    """(x - median) / MAD over all entries, with MAD = 0 mapping every score
    to 0; each median is `median`'s, so np.median's value.  A z past the
    float range (a subnormal MAD) is +-inf, without a warning."""
    arr = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        med = float(median(arr.ravel()))
        mad = float(median(np.abs(arr - med).ravel()))
        if mad == 0.0:
            return np.zeros_like(arr)
        return (arr - med) / mad


def sufficiency_index(bits: float, mi_eff: float, auc: float) -> float:
    """One report's raw SI: its three components combined with DEFAULT_WEIGHTS."""
    w_b, w_m, w_s = DEFAULT_WEIGHTS
    return float(w_b * bits + w_m * mi_eff + w_s * (2.0 * auc - 1.0))


def zscored_sufficiency_index(bits, mi_eff, auc) -> np.ndarray:
    """A cohort's SI (each argument holds one entry per set, at least 2): each
    component robust-z-scored across the cohort, then weighted.  An infinite
    z gives an infinite or NaN SI, without a warning."""
    if len(bits) < 2:
        raise ValidationError("the z-scored SI needs a cohort of at least 2")
    w_b, w_m, w_s = DEFAULT_WEIGHTS
    with np.errstate(over="ignore", invalid="ignore"):
        return (w_b * robust_zscores(bits) + w_m * robust_zscores(mi_eff)
                + w_s * robust_zscores(2.0 * np.asarray(auc, dtype=float) - 1.0))


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
            "weights": list(DEFAULT_WEIGHTS),
            "leaky": self.leaky,
        }
        return json.dumps(_null_nonfinite(payload), indent=2, sort_keys=True,
                          allow_nan=False)


def _null_nonfinite(value):
    """value with every non-finite float, at any depth, as None (JSON null)."""
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_from_components(name: str, bits: float, auc: float, margin_pos: float,
                           margin_neg: float, lb_pos_bits: float = math.nan,
                           lb_neg_bits: float = math.nan, *,
                           leaky: dict | None = None) -> SufficiencyReport:
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
        si=sufficiency_index(bits, mie, auc),
        leaky=leaky,
    )


# A --components row's fields, in `report_from_components` order.
_COMPONENT_KEYS = ("name", "bits", "auc", "margin_pos", "margin_neg", "lb_pos_bits",
                  "lb_neg_bits")


def read_components(path) -> list:
    """The reports of a components file, one `report_from_components` a row.

    The file is UTF-8 and holds a JSON list of objects, each with a string
    `name`, finite numbers `bits`, `auc`, `margin_pos` and `margin_neg`, and
    optional numbers or nulls `lb_pos_bits` and `lb_neg_bits` (NaN when null
    or absent).
    """
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot read components file {path}: {exc}") from exc
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ValidationError(f"components file {path}: the top level must be a list of objects")
    reports = []
    for index, row in enumerate(rows):
        values = [row.get(key) for key in _COMPONENT_KEYS]
        for key, value in zip(_COMPONENT_KEYS, values):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if key == "name":
                ok, kind = isinstance(value, str), "a string"
            elif key.startswith("lb_"):
                ok, kind = value is None or number, "a number or null"
            else:
                # An int past the float range is not finite either.
                ok, kind = number and abs(value) <= sys.float_info.max, "a finite number"
            if not ok:
                got = repr(value) if key in row else "nothing"
                raise ValidationError(f"components file {path}, row {index}: "
                                      f"{key!r} must be {kind}, got {got}")
        reports.append(report_from_components(*(math.nan if v is None else v for v in values)))
    return reports


def _margin_rows(scores: np.ndarray, true_cols) -> np.ndarray:
    """Per-item margin: own-column score minus the mean of the other columns."""
    n, m = scores.shape
    if m < 2:
        raise ValidationError("margins need at least two principles in the pool")
    true_cols = np.asarray(true_cols)
    # Row i's other columns in order: k for k < j_i, then k + 1.
    others = np.arange(m - 1) + (np.arange(m - 1) >= true_cols[:, None])
    rows = np.arange(n)
    return scores[rows, true_cols] - scores[rows[:, None], others].mean(axis=1)


def _bound_bits(scores: np.ndarray, true_cols, rng: np.random.Generator) -> float:
    """Row contrastive bound (bits) with SHADOWS uniform shadow columns per
    item, or as many as the pool has besides the true one."""
    m = scores.shape[1]
    cols = mi.shadow_candidates(rng, true_cols, m, min(SHADOWS, m - 1))
    return mi.infonce_bound(np.take_along_axis(scores, cols, axis=1)) / LN2


def evaluate_principle_set(policy, task, pset: PrincipleSet, *,
                           seed: int = 0) -> SufficiencyReport:
    """Score a principle set against a policy on the task's gold continuations.

    Deterministic given the seed.  The policy must carry the associations the
    signals probe (i.e. be trained/warm-started on the task), exactly as an
    LLM brings its pretraining to the same measurement.  Every median is
    `median`'s, so np.median's value.
    """
    if not pset.negatives:
        raise ValidationError("evaluation needs at least one negative")
    rng = np.random.default_rng((seed, 17))
    items = [(item.prompt, item.gold) for item in task.items]
    if not items:
        raise ValidationError("task sample is empty")
    true_pos_idx = [j % len(pset.positives) for j in task.true_columns]

    # One table over every item's contexts: its prompt with every positive,
    # every negative and no principle, each context scoring the item's gold.
    n_pos = len(pset.positives)
    principles = pset.positives + pset.negatives
    bags = policy.bag_grid([prompt for prompt, _ in items],
                           [p.tokens for p in principles] + [()])
    n_ctx = bags.shape[1]
    golds = transition_counts([gold for _, gold in items], policy.vocab.size)
    sums = policy.forward(bags.reshape(-1, policy.vocab.size)).context_logprobs(
        golds, np.repeat(np.arange(len(items)), n_ctx)).reshape(len(items), n_ctx)
    n_tok = np.array([max(1, len(gold)) for _, gold in items], dtype=float)
    scores = sums / n_tok[:, None]
    pos_scores, neg_scores, without = scores[:, :n_pos], scores[:, n_pos:-1], scores[:, -1]

    # Predictive information: condition on the true positive vs. no principle.
    with_lp = sums[np.arange(len(items)), true_pos_idx]
    delta_bits = float(median((with_lp - sums[:, -1]) / n_tok / LN2))

    # Per-principle delta-NLL scores for separation and the leaky scan: one
    # median call per block, each column's median that of its own 1-D call.
    per_principle_pos = dict(zip([p.pid for p in pset.positives], median(
        (pos_scores - without[:, None]) / LN2).tolist()))
    per_principle_neg = dict(zip([p.pid for p in pset.negatives], median(
        (neg_scores - without[:, None]) / LN2).tolist()))
    auc = mann_whitney_auc(list(per_principle_pos.values()),
                           list(per_principle_neg.values()))

    margin_pos = float(np.mean(_margin_rows(pos_scores, true_pos_idx)))
    true_neg_idx = [i % len(pset.negatives) for i in true_pos_idx]
    if len(pset.negatives) >= 2:
        margin_neg = float(np.mean(_margin_rows(neg_scores, true_neg_idx)))
        lb_neg = _bound_bits(neg_scores, true_neg_idx, rng)
    else:
        margin_neg, lb_neg = 0.0, math.nan
    lb_pos = _bound_bits(pos_scores, true_pos_idx, rng)

    return report_from_components(pset.name, delta_bits, auc, margin_pos, margin_neg,
                                  lb_pos, lb_neg, leaky=leaky_negative_flags(per_principle_neg))


def warm_started_reports(tasks, seed: int, epochs: int, lr: float) -> list:
    """Each (principle set, task) pair's report, scored against a policy
    that `mle_pretrain` fits from `init_params(seed)` to the task's gold
    triples, as a base model brings its pretraining.  Scoring only reads the
    policy, so sets that build the same triples share one warm start."""
    warmed, reports = {}, []
    for pset, task in tasks:
        triples = tuple(gold_items(task))
        if triples not in warmed:
            warmed[triples] = ToyPolicy(task.vocab)
            warmed[triples].init_params(seed)
            mle_pretrain(warmed[triples], triples, epochs, lr)
        reports.append(evaluate_principle_set(warmed[triples], task, pset, seed=seed))
    return reports


def with_zscored_si(reports) -> list:
    """The reports, each with its z-scored SI across them when there are two or more."""
    if len(reports) < 2:
        return reports
    zs = zscored_sufficiency_index([r.delta_nll_median for r in reports],
                                   [r.mi_effective for r in reports],
                                   [r.auc for r in reports])
    return [replace(r, si_zscored=float(z)) for r, z in zip(reports, zs)]


def aligned_scores(policy, task) -> tuple:
    """The policy's items-by-principles score matrix, each row rotated left by
    its item's true column, and each row's log-softmax at its true column.
    Entry (i, j) is item i's gold log-probability per token under its prompt
    with principle j; one table scores every (item, principle) context."""
    n_items, n_principles = len(task.items), len(task.principles)
    table = policy.forward(policy.bag_grid(
        [item.prompt for item in task.items],
        [p.tokens for p in task.principles]).reshape(-1, task.vocab.size))
    golds = transition_counts([item.gold for item in task.items], task.vocab.size)
    scores = table.seq_logprobs(golds).reshape(n_items, n_principles, n_items)
    own = np.arange(n_items)
    matrix = scores[own, :, own] / np.maximum(1, golds.sum(axis=(1, 2)))[:, None]
    true_cols = np.array(task.true_columns)
    # aligned[i, k] = matrix[i, (k + j_i) mod P].
    aligned = matrix[own[:, None], (np.arange(n_principles) + true_cols[:, None]) % n_principles]
    return aligned, mi._log_softmax(matrix, axis=1)[own, true_cols]


def read_nll_csv(path) -> list:
    """The (nll_without_bits, nll_with_bits) rows of a UTF-8 NLL CSV file,
    each finite, under the header `nll_without_bits,nll_with_bits`; blank
    lines are skipped and at least one row is required."""
    # Read text has universal newlines, so its lines are the file's lines.
    header, *lines = Path(path).read_text(encoding="utf-8").split("\n")
    if header.strip() != "nll_without_bits,nll_with_bits":
        raise ValidationError(f"bad NLL CSV header in {path}: {header.strip()!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if line.strip():
            try:
                a, b = line.strip().split(",")
                rows.append((float(a), float(b)))
            except ValueError as exc:
                raise ValidationError(f"NLL CSV {path}, line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ValidationError(f"NLL CSV {path}, line {lineno}: values must be "
                                      f"finite, got {line.strip()!r}")
    if not rows:
        raise ValidationError(f"NLL CSV {path} has no rows")
    return rows


def evaluate_from_score_files(name: str, pos: np.ndarray, neg: np.ndarray, nll_rows, *,
                              seed: int = 0) -> SufficiencyReport:
    """Evaluation over externally produced scores (e.g. real LLM exports).

    `pos`/`neg` are items-by-principles float score arrays where item i's
    true (or index-paired) principle sits in column i mod M.
    `nll_rows` are (nll_without_bits, nll_with_bits) per item; the report's
    delta is `median`'s of their deltas, so np.median's value.
    """
    if pos.shape[0] != neg.shape[0]:
        raise ValidationError("positive and negative matrices must share items")
    rng = np.random.default_rng((seed, 17))
    deltas = [delta_nll(a, b)["delta_bits"] for a, b in nll_rows]
    if not deltas:
        raise ValidationError("need at least one NLL row")
    delta_bits = float(median(deltas))
    true_pos = [i % pos.shape[1] for i in range(pos.shape[0])]
    true_neg = [i % neg.shape[1] for i in range(neg.shape[0])]
    margin_pos = float(np.mean(_margin_rows(pos, true_pos)))
    margin_neg = float(np.mean(_margin_rows(neg, true_neg)))
    auc = mann_whitney_auc(pos[np.arange(pos.shape[0]), true_pos],
                           neg[np.arange(neg.shape[0]), true_neg])
    return report_from_components(name, delta_bits, auc, margin_pos, margin_neg,
                                  _bound_bits(pos, true_pos, rng), _bound_bits(neg, true_neg, rng))
