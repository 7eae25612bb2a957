"""The single-loop optimiser: group advantages, an on-policy GRPO term, unified loss.

One step runs, in order: sample groups -> base + gated/autoscaled MI rewards
-> centred group advantages -> score matrix for the symmetric InfoNCE
auxiliary -> OT regulariser on the step's hidden clouds -> total loss -> one
SGD step, then emits a StepReport.  The loss identity

    total = grpo + sami_weight(step) * sami + shaping + ot

holds at every step (ot already carries its weight and warmup gate).  The
GRPO term is on-policy: each sampled batch gets one update, so the policy that
sampled it is the one being differentiated, the sequence-level ratio
exp((new - old) / max_len) is exactly 1 and a PPO clip on it never binds
(GRPO with one update per batch; Shao et al. 2024, arXiv:2402.03300).  Over
the n_kept untruncated completions, with token sums divided by the completion
cap max_len, which removes length bias without per-sequence normalisation:

    loss_grpo = -sum_i A_i / n_kept
    gradient  = -sum_i A_i * grad log p_i / (max_len * n_kept)

Schedules: sami_weight ramps linearly over mi_warmup_steps; the row/column
mix anneals (0.7, 0.3) -> (0.5, 0.5) over the first 10% of max_steps; the OT
term is zero before ot_warmup; the format gate activates after 30% of the MI
warmup.  Everything is deterministic under (config, seed): stochastic
channels draw from seeds derived via SeedSequence(seed, step, channel, index).

The optimiser is plain SGD with a global gradient-norm clip; external
trainer defaults do not transfer to this scale.  The GRPO ablations are the
same objective with sami_weight, ot_weight, channel_weight and shaping_weight
at 0 (and jitter_sigma > 0 for the jittered one); a TrainConfig is run as
given, with no presets.

Work that is constant for the run is done once, in `Trainer.__init__`: the
bag weights of every (principle, item) context (bagging uses no
parameters), and the frozen reference's table over every item's true
context, which also gives the reference's probe distribution.  A step
gathers its rows of both.  The table kernel computes each context's row on
its own, so the gathered rows equal those of tables built per step, bit for
bit.  Because the reference table is built once, code that loads a reference
into an existing Trainer (a resume) must rebuild it.  Per completion, the
step's bookkeeping (format check, entropies, gates, MI reward, advantages)
is array operations; only the shadow draws call the generator once per
completion, as mi.draw_shadows does.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import mi, ot, prob_metrics, rep_metrics, rewards
from .errors import ValidationError
from .policy import NextTokenTable, ToyPolicy, ToyTask

STEPS_JSONL_FIELDS = (
    "step", "reward_base_mean", "reward_mi_mean", "reward_std",
    "loss_total", "loss_grpo", "loss_sami", "loss_ot",
    "mi_row_clean", "mi_col_clean", "mi_gap", "diag_mi",
    "grad_norm", "entropy", "clean_count",
    "bhat_angle", "hellinger", "js_bits", "frechet", "effrank", "pr",
    "geometry_degenerate", "beta", "ot_iters", "ot_violation", "ot_converged",
)

# Seed-derivation channel ids; 3 is unused, and renumbering the jitter
# channel would change its draws.
_CH_SAMPLE, _CH_SHADOW_P, _CH_SHADOW_C, _CH_JITTER = 0, 1, 2, 4


def derive_rng(seed: int, step: int, channel: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, step, channel, index)))


@dataclass(frozen=True)
class TrainConfig:
    """Trainer hyperparameters; defaults are those of the bundled run configs."""

    group_size: int = 4
    sami_weight: float = 0.05
    mi_warmup_steps: int = 50
    ot_weight: float = 0.01
    ot_warmup: int = 200
    blur: float = 0.12
    shadow_k: int = 2
    entropy_quantile: float = 0.8
    channel_weight: float = 0.15
    sigmoid_slope: float = 2.5
    autoscale_target: float = 0.2
    autoscale_eta: float = 0.05
    ema_decay: float = 0.99
    shaping_weight: float = 0.0
    jitter_sigma: float = 0.0
    # Sized for a 16-token policy.
    learning_rate: float = 1.0
    grad_clip: float = 1.0
    prompts_per_batch: int = 8

    def __post_init__(self):
        if self.group_size < 2:
            raise ValidationError("group size must be at least 2")
        for name in ("sami_weight", "ot_weight", "channel_weight", "shaping_weight",
                     "jitter_sigma", "autoscale_eta", "learning_rate"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class GroupAdvantages:
    advantages: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def group_advantages(group_rewards) -> GroupAdvantages:
    """Centred advantages within each group, the last axis; mean and std have
    one entry per group (std is logged, not applied).

    The advantages are raw, not divided by the group std, as in Dr. GRPO
    (Liu et al. 2025, arXiv:2503.20783): at this scale std scaling amplifies
    MI-channel noise into entropy collapse.  A zero-variance group yields
    all-zero advantages: no learning signal.
    """
    r = np.asarray(group_rewards, dtype=float)
    if r.shape[-1] < 2:
        raise ValidationError("a group needs at least 2 rewards")
    mean = r.mean(axis=-1, keepdims=True)
    return GroupAdvantages(r - mean, mean[..., 0], r.std(axis=-1))


def rowcol_anneal(step: int, max_steps: int) -> tuple:
    """(lam_row, lam_col): linear (0.7, 0.3) -> (0.5, 0.5) over 10% of max_steps."""
    if max_steps <= 0:
        raise ValidationError("max_steps must be positive")
    t = min(1.0, step / (0.1 * max_steps))
    return 0.7 - 0.2 * t, 0.3 + 0.2 * t


def sami_weight_at(config: TrainConfig, step: int) -> float:
    """Linear warmup of the auxiliary weight over mi_warmup_steps."""
    if config.mi_warmup_steps <= 0:
        return config.sami_weight
    return config.sami_weight * min(1.0, step / config.mi_warmup_steps)


def enigma_loss(grpo_term: float, sami_term: float, shaping_term: float,
                ot_term: float, config: TrainConfig, step: int) -> float:
    """Unified objective with schedules applied; ot_term is gated by warmup."""
    gated_ot = 0.0 if step < config.ot_warmup else ot_term
    return grpo_term + sami_weight_at(config, step) * sami_term + shaping_term + gated_ot


@dataclass(frozen=True)
class StepReport:
    """Everything logged for one step; the JSONL row is a fixed subset."""

    step: int
    reward_base_mean: float
    reward_mi_mean: float
    reward_total_mean: float
    reward_std: float
    loss_grpo: float
    loss_sami: float
    loss_shaping: float
    loss_ot: float
    loss_total: float
    mi_row_clean: float
    mi_col_clean: float
    mi_gap: float
    diag_mi: float
    grad_norm: float
    entropy: float
    clean_count: int
    bhat_angle: float
    hellinger: float
    js_bits: float
    # NaN when the fit behind it raised; geometry_degenerate is then true,
    # and also when frechet is a roundoff-negative value clamped to 0.
    frechet: float
    effrank: float
    pr: float
    geometry_degenerate: bool = False
    beta: float = 1.0
    # The Sinkhorn solve: cross-term iterations (eps levels plus iterations
    # at the target eps, Newton or scaling) and final L1 row violation, and
    # whether all three solves converged; None before ot_warmup.
    ot_iters: int | None = None
    ot_violation: float | None = None
    ot_converged: bool | None = None

    def jsonl_row(self) -> dict:
        """The steps.jsonl row; NaN becomes None (null), so the row is strict JSON."""
        row = {k: getattr(self, k) for k in STEPS_JSONL_FIELDS}
        return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}


def _sami_matrix(own_scores, groups, kept, lengths) -> mi.ScoreMatrix:
    """Square cross-query matrix over kept rows: entry (i, j) scores completion
    kept[i] under the true context of completion kept[j]."""
    return mi.ScoreMatrix(own_scores[groups[kept]][:, kept].T / lengths[kept, None],
                          normalisation="length_mean")


def _geometry(cur: rep_metrics.EmpiricalMeasure, ref: rep_metrics.EmpiricalMeasure) -> tuple:
    """(frechet, effrank, pr, degenerate) of the current and reference clouds;
    each cloud is fitted once, and the spectrum is the current fit's."""
    try:
        cur_fit = rep_metrics.fit_gaussian(cur)
    except ValidationError:
        return math.nan, math.nan, math.nan, True
    degenerate = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", rep_metrics.FrechetClampWarning)
        try:
            frechet = rep_metrics.frechet_distance(cur_fit, rep_metrics.fit_gaussian(ref))
        except ValidationError:
            frechet, degenerate = math.nan, True
    for w in caught:
        if issubclass(w.category, rep_metrics.FrechetClampWarning):
            degenerate = True
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    try:
        dims = rep_metrics.effective_dims(cur_fit.spectrum())
        effrank, pr = dims["effrank"], dims["participation_ratio"]
    except ValidationError:
        effrank, pr, degenerate = math.nan, math.nan, True
    return float(frechet), float(effrank), float(pr), degenerate


class Trainer:
    """Owns the mutable policy, reference snapshot, and autoscaler state."""

    def __init__(self, policy: ToyPolicy, task: ToyTask, config: TrainConfig,
                 max_steps: int, seed: int):
        if max_steps <= 0:
            raise ValidationError("max_steps must be positive")
        if len(task.principles) < 2:
            raise ValidationError("shadow principles need a pool of at least two")
        self.policy = policy
        self.task = task
        self.config = config
        self.max_steps = max_steps
        self.seed = seed
        self.step = 0
        self.reference = policy.clone()
        self.autoscaler = rewards.AutoscalerState(
            target_ratio=config.autoscale_target, rate=config.autoscale_eta,
            decay=config.ema_decay)
        # Run constants (module docstring).  _grid[p, i] bags item i's prompt
        # with pool principle p, and _true[i] is item i's principle.
        pid_index = {p.pid: i for i, p in enumerate(task.principles)}
        self._true = np.array([pid_index[item.principle_id] for item in task.items], dtype=int)
        self._grid = np.ascontiguousarray(policy.bag_grid(
            [item.prompt for item in task.items],
            [p.tokens for p in task.principles]).transpose(1, 0, 2))
        true_weights = self._grid[self._true, np.arange(len(task.items))]
        self._ref_table = self.reference.forward(true_weights)
        # Geometry probes run on the first item's true context.
        self._probe_weights = true_weights[:1]
        self._probe_ref = prob_metrics.ProbVector(self._ref_table.next_token_probs(0))

    # ---------- helpers ----------

    def _batch_items(self, step: int) -> np.ndarray:
        """Indices of the step's items, the batch's groups in order."""
        n = len(self.task.items)
        start = (step * self.config.prompts_per_batch) % n
        return (start + np.arange(self.config.prompts_per_batch)) % n

    def _step_table(self, item_idx) -> NextTokenTable:
        """The policy's table over the step's contexts: context p * G + g
        pairs group g's prompt with pool principle p."""
        return self.policy.forward(self._grid[:, item_idx].reshape(-1, self.policy.vocab.size))

    def _row_candidates(self, item_idx, groups, step: int) -> np.ndarray:
        """(B, K+1) step contexts of each completion's true principle (column
        0) and K uniform shadow principles."""
        k = self.config.shadow_k
        n_alt = len(self.task.principles) - 1
        rng = derive_rng(self.seed, step, _CH_SHADOW_P)
        # mi.draw_shadows' draw: k of the principles other than the true one,
        # numbered in pool order, so a pick skips the true principle.
        picked = np.array([rng.choice(n_alt, size=k, replace=n_alt < k) for _ in groups])
        true = self._true[item_idx[groups], None]
        return np.hstack([true, picked + (picked >= true)]) * len(item_idx) + groups[:, None]

    def _col_candidates(self, b: int, step: int) -> np.ndarray:
        """(B, K+1) completions {own, K shadows} to score under each
        completion's own rendered prompt."""
        k = self.config.shadow_k
        rng = derive_rng(self.seed, step, _CH_SHADOW_C)
        # Picks index the other completions, which skip idx.
        picked = np.array([rng.choice(b - 1, size=k, replace=b - 1 < k) for _ in range(b)])
        idx = np.arange(b)[:, None]
        return np.hstack([idx, picked + (picked >= idx)])

    def _sami_weights(self, matrix: mi.ScoreMatrix, step: int, lam_row: float,
                      lam_col: float, shaping_mask) -> np.ndarray:
        """d(sami_weight * sami + shaping)/d(scores) for the kept-row matrix."""
        scores = matrix.scores
        n = scores.shape[0]
        eye = np.eye(n)
        soft_row = np.exp(scores - scores.max(axis=1, keepdims=True))
        soft_row /= soft_row.sum(axis=1, keepdims=True)
        soft_col = np.exp(scores - scores.max(axis=0, keepdims=True))
        soft_col /= soft_col.sum(axis=0, keepdims=True)
        d_row = -(eye - soft_row) / n
        d_col = -(eye - soft_col) / n
        weights = sami_weight_at(self.config, step) * (lam_row * d_row + lam_col * d_col)
        if self.config.shaping_weight > 0 and shaping_mask.any():
            coeff = (shaping_mask.astype(float) / shaping_mask.sum()) - 1.0 / n
            weights += self.config.shaping_weight * coeff[:, None] * (soft_row - eye)
        return weights

    # ---------- the step ----------

    def train_step(self) -> StepReport:
        """One full optimisation step; state mutates only on success."""
        config = self.config
        step = self.step
        item_idx = self._batch_items(step)
        n_groups = item_idx.size
        table = self._step_table(item_idx)
        own = self._true[item_idx] * n_groups + np.arange(n_groups)
        samples = self.policy.sample_groups(
            table, own, config.group_size,
            [derive_rng(self.seed, step, _CH_SAMPLE, g) for g in range(n_groups)])
        groups = np.repeat(np.arange(n_groups), config.group_size)
        b = groups.size
        lengths = samples.lengths
        # Every score and gradient of the step goes through the completions'
        # transition counts: scores[c, i] is completion i under context c, and
        # coeffs[c, i] collects its weight in the loss gradient (GRPO, SAMI
        # and shaping) for the one backward pass.
        counts = samples.counts(self.policy.vocab.size)
        scores = table.seq_logprobs(counts)
        own_scores = scores[own]
        coeffs = np.zeros_like(scores)

        entropies = samples.mean_entropies()
        entropy_mask = rewards.entropy_gate(entropies, config.entropy_quantile)
        format_ok = samples.format_ok(self.policy.vocab)

        base = format_ok.astype(float)
        if config.jitter_sigma > 0:
            jitter_rng = derive_rng(self.seed, step, _CH_JITTER)
            base = base + config.jitter_sigma * jitter_rng.standard_normal(b)

        # Length-normalised candidate scores; the positive is column 0.
        row_scores = (scores[self._row_candidates(item_idx, groups, step), np.arange(b)[:, None]]
                      / lengths[:, None])
        format_gate_on = rewards.format_gate_schedule(step, config.mi_warmup_steps)
        mi_reward = np.zeros(b)
        if config.channel_weight > 0:
            z = mi.row_positive_logsoftmax(mi.ScoreMatrix(row_scores), standardise=True)
            gate_open = entropy_mask & (format_ok | (not format_gate_on))
            mi_reward = rewards.mi_tiebreak_rewards(
                z, config.sigmoid_slope, config.channel_weight, gate_open, self.autoscaler)
        total_reward = base + mi_reward
        grouped = group_advantages(total_reward.reshape(n_groups, -1))
        adv = grouped.advantages.ravel()

        # The on-policy GRPO term over untruncated completions (module
        # docstring); the builtin sum adds the advantages in completion order.
        kept = np.flatnonzero(~samples.truncated)
        n_kept = max(1, kept.size)
        loss_grpo = sum(-adv[kept]) / n_kept
        coeffs[own[groups[kept]], kept] = -adv[kept] / self.policy.max_len / n_kept

        lam_row, lam_col = rowcol_anneal(step, self.max_steps)
        if kept.size < 2:
            loss_sami, loss_shaping, diag_stat = 0.0, 0.0, math.nan
        else:
            matrix = _sami_matrix(own_scores, groups, kept, lengths)
            losses = mi.infonce_losses(matrix)
            loss_sami = lam_row * losses["row_loss"] + lam_col * losses["col_loss"]
            shaping_mask = entropy_mask[kept]
            loss_shaping = mi.shaping_term(matrix, shaping_mask, config.shaping_weight)
            diag_stat = mi.diag_mi(matrix)
            if sami_weight_at(config, step) > 0 or config.shaping_weight > 0:
                weights = self._sami_weights(matrix, step, lam_row, lam_col, shaping_mask)
                np.add.at(coeffs, (own[groups[kept]][None, :], kept[:, None]),
                          weights / lengths[kept, None])

        cands = self._col_candidates(b, step)
        col_scores = own_scores[groups[:, None], cands] / lengths[cands]
        clean = mi.clean_mi_bounds(mi.BoundBatch(row_scores, col_scores),
                                   config.shadow_k, format_ok & entropy_mask)

        cur_measure = rep_metrics.EmpiricalMeasure(
            table.summaries(own[groups], counts)[0], normalised=True)
        ref_measure = rep_metrics.EmpiricalMeasure(
            self._ref_table.summaries(item_idx[groups], counts)[0], normalised=True)
        loss_ot = 0.0
        ot_stats = {"iterations": None, "violation": None, "converged": None}
        feat_grad = None
        if config.ot_weight > 0 and step >= config.ot_warmup:
            # Bounded iteration budget: in the 2000-step enigma_high_si run
            # every solve converges well inside it, the self terms in 27-46
            # iterations and the cross term in 21-24 eps levels plus 2-13
            # Newton iterations.  A cross solve whose Newton step fails goes
            # on with Sinkhorn iterations up to 500, and the envelope
            # gradient of the achieved plan stays valid.
            value, point_grad, ot_stats = ot.sinkhorn_divergence_with_grad(
                cur_measure, ref_measure, config.blur ** 2, max_iter=500)
            loss_ot = config.ot_weight * value
            feat_grad = table.summary_feat_grad(own[groups], counts,
                                                config.ot_weight * point_grad)

        loss_total = enigma_loss(loss_grpo, loss_sami, loss_shaping, loss_ot,
                                 config, step)

        total_grad = self.policy.backward(table, np.tensordot(coeffs, counts, axes=1),
                                          feat_grad)
        grad_norm = total_grad.global_norm()
        if config.grad_clip > 0 and grad_norm > config.grad_clip:
            total_grad = total_grad.scaled(config.grad_clip / grad_norm)

        # Geometry probes against the frozen reference.
        p_cur = prob_metrics.ProbVector(
            self.policy.forward(self._probe_weights).next_token_probs(0))
        probes = prob_metrics.probe_report(p_cur, self._probe_ref)
        frechet, effrank, pr, degenerate = _geometry(cur_measure, ref_measure)

        report = StepReport(
            step=step,
            reward_base_mean=float(base.mean()),
            reward_mi_mean=float(mi_reward.mean()),
            reward_total_mean=float(total_reward.mean()),
            reward_std=float(np.mean(grouped.std)),
            loss_grpo=float(loss_grpo),
            loss_sami=float(loss_sami),
            loss_shaping=float(loss_shaping),
            loss_ot=float(loss_ot),
            loss_total=float(loss_total),
            mi_row_clean=clean["row_bound"],
            mi_col_clean=clean["col_bound"],
            mi_gap=clean["gap"],
            diag_mi=diag_stat,
            grad_norm=float(grad_norm),
            entropy=float(entropies.mean()),
            clean_count=clean["clean_count"],
            bhat_angle=probes["bhat_angle"],
            hellinger=probes["hellinger"],
            js_bits=probes["js_bits"],
            frechet=frechet,
            effrank=effrank,
            pr=pr,
            geometry_degenerate=degenerate,
            beta=self.autoscaler.beta,
            ot_iters=ot_stats["iterations"],
            ot_violation=ot_stats["violation"],
            ot_converged=ot_stats["converged"],
        )

        # Commit: parameter update, autoscaler, step counter.
        self.policy.add_scaled(total_grad, -config.learning_rate)
        if config.channel_weight > 0:
            self.autoscaler = rewards.autoscale_update(
                self.autoscaler, float(np.abs(mi_reward).mean()),
                float(np.abs(base).mean()))
        self.step += 1
        return report

    # ---------- checkpoints ----------

    def save_checkpoint(self, path, config_hash: str = "",
                        config_text: str = "") -> str:
        """Write a full parameter snapshot plus run config and step.

        Returns the parameter hash stored for integrity checking.
        """
        blocks = self.policy.param_blocks()
        meta = {"step": self.step, "seed": self.seed, "max_steps": self.max_steps,
                "param_hash": self.policy.param_hash(), "config_hash": config_hash,
                "config_text": config_text,
                "vocab_size": self.policy.vocab.size, "dim": self.policy.dim,
                "max_len": self.policy.max_len, "schema": 1}
        np.savez(path, meta=json.dumps(meta, sort_keys=True),
                 **{k: v for k, v in blocks.items()},
                 ref_embed=self.reference.embed, ref_out=self.reference.out,
                 ref_ctx_scale=self.reference.ctx_scale,
                 ref_prev_scale=self.reference.prev_scale)
        return meta["param_hash"]


def load_checkpoint(path) -> tuple:
    """(policy, reference, meta) from a snapshot; verifies the stored hash.

    A snapshot written before checkpoints kept max_len loads with
    DEFAULT_MAX_LEN.
    """
    from .policy import DEFAULT_MAX_LEN, Vocab

    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    vocab = Vocab(int(meta["vocab_size"]))
    max_len = int(meta.get("max_len", DEFAULT_MAX_LEN))
    policy = ToyPolicy(vocab, int(meta["dim"]), max_len=max_len)
    policy.embed = data["embed"].copy()
    policy.out = data["out"].copy()
    policy.ctx_scale = data["ctx_scale"].copy()
    policy.prev_scale = data["prev_scale"].copy()
    ref = ToyPolicy(vocab, int(meta["dim"]), max_len=max_len)
    ref.embed = data["ref_embed"].copy()
    ref.out = data["ref_out"].copy()
    ref.ctx_scale = data["ref_ctx_scale"].copy()
    ref.prev_scale = data["ref_prev_scale"].copy()
    if policy.param_hash() != meta["param_hash"]:
        raise ValidationError("checkpoint parameter hash mismatch (corrupt file?)")
    return policy, ref, meta
