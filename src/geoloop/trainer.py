"""The single-loop optimiser: group advantages, an on-policy GRPO term, unified loss.

One step samples groups, then computes what no loss weight scales: the score
matrix for the symmetric InfoNCE auxiliary, the Sinkhorn solve on the step's
hidden clouds and their geometry.  Then base + gated/autoscaled MI
rewards (channel_weight is the tie-breaker's one setting; the rest are
`rewards` constants) -> centred group advantages -> weighted terms -> total
loss -> one SGD step, and it emits a StepReport.  The loss identity

    total = grpo + sami_weight(step) * sami + ot

is how train_step sums loss_total, with the step's one read of
sami_weight_at; ot is ot_weight times the divergence when the step's one
warmup gate, ot_on, is open, and 0 otherwise.  The
GRPO term is on-policy: each sampled batch gets one update, so the policy that
sampled it is the one being differentiated, the sequence-level ratio
exp((new - old) / max_len) is exactly 1 and a PPO clip on it never binds
(GRPO with one update per batch; Shao et al. 2024, arXiv:2402.03300).  Over
the n_kept untruncated completions, with token sums divided by the completion
cap max_len, which removes length bias without per-sequence normalisation:

    loss_grpo = -sum_i A_i / n_kept
    gradient  = -sum_i A_i * grad log p_i / (max_len * n_kept)

Schedules: sami_weight ramps linearly over the first MI_WARMUP_STEPS steps;
the row/column mix anneals (0.7, 0.3) -> (0.5, 0.5) over the first 10% of
max_steps; the OT term is zero before ot_warmup; the format gate activates
after 30% of the MI warmup.

Everything is deterministic under the config.  Each consumer of random
numbers draws from default_rng of its own words:

    make_toy_task, init_params, warm-start epoch 0   (seed,)
    warm-start epoch e                               (seed, e)
    eval (constitution.py)                           (seed, 17)
    train step s                                     (seed, s, 5)

SeedSequence drops trailing zero words, so epoch 0's (seed, 0) is (seed,);
eval, another command, reads the words of warm-start epoch 17.  Step s
makes one Generator, `np.random.default_rng((seed, s, 5))`, and draws from
it in this order: the sampling uniforms, one (PROMPTS_PER_BATCH, max_len *
GROUP_SIZE) block whose row g is group g's; the row shadow candidates; the
column shadow candidates; and standard_normal(b), the reward jitter, when
jitter_sigma > 0.

The optimiser is plain SGD (LEARNING_RATE) with a global gradient-norm clip
(GRAD_CLIP); external trainer defaults do not transfer to this scale.  The
GRPO ablations are the same objective with sami_weight, ot_weight and
channel_weight at 0 (and jitter_sigma > 0 for the jittered one); a run
config is run as given, with no presets.

Work that is constant for the run is done once, in `Trainer.__init__`: the
bag weights of every (principle, item) context (bagging uses no
parameters), and the frozen reference's table over every item's true
context.  A step gathers its rows of both; its one forward pass is the
policy's table over the step's contexts.  The table kernel computes each
context's row on its own, so the gathered rows equal those of tables built
per step, bit for bit.  Because the reference table is built once, code
that loads a reference into an existing Trainer (a resume) must rebuild it.
Per completion, the step's bookkeeping (format check, entropies, gates, MI
reward, advantages) is array operations, and each shadow draw's picks
(mi.shadow_candidates) are one Generator call.  One mi.infonce_losses pass
gives the SAMI losses and the SAMI gradient's softmaxes, and only the
current cloud's fit takes its eigenvalues.
"""
from __future__ import annotations

import io
import json
import math
import re
import warnings
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import mi, ot, rep_metrics, rewards
from .errors import ValidationError
from .policy import DEFAULT_MAX_LEN, NextTokenTable, ToyPolicy, logit_sums
from .task import ToyTask, Vocab

# OT length scale (eps = BLUR ** 2), SGD rate and gradient-norm clip, sized for 16 tokens.
BLUR = 0.12
LEARNING_RATE = 1.0
GRAD_CLIP = 1.0
# Completions per prompt, prompts per step, and the steps over which the
# auxiliary weight ramps up.
GROUP_SIZE = 4
PROMPTS_PER_BATCH = 8
MI_WARMUP_STEPS = 50


def group_advantages(group_rewards) -> tuple:
    """(advantages, std): centred advantages within each group, the last
    axis, and one std per group (it is logged, not applied).

    The advantages are raw, not divided by the group std, as in Dr. GRPO
    (Liu et al. 2025, arXiv:2503.20783): at this scale std scaling amplifies
    MI-channel noise into entropy collapse.  A zero-variance group yields
    all-zero advantages: no learning signal.
    """
    r = np.asarray(group_rewards, dtype=float)
    n = r.shape[-1]
    if n < 2:
        raise ValidationError("a group needs at least 2 rewards")
    # The sums and divisions of r.mean and r.std, each taken once.
    centred = r - np.add.reduce(r, axis=-1, keepdims=True) / n
    return centred, np.sqrt(np.add.reduce(centred * centred, axis=-1) / n)


def rowcol_anneal(step: int, max_steps: int) -> tuple:
    """(lam_row, lam_col): linear (0.7, 0.3) -> (0.5, 0.5) over 10% of max_steps."""
    if max_steps <= 0:
        raise ValidationError("max_steps must be positive")
    t = min(1.0, step / (0.1 * max_steps))
    return 0.7 - 0.2 * t, 0.3 + 0.2 * t


def sami_weight_at(config, step: int) -> float:
    """Linear warmup of the auxiliary weight over MI_WARMUP_STEPS."""
    return config.sami_weight * min(1.0, step / MI_WARMUP_STEPS)


@dataclass(frozen=True)
class StepReport:
    """Everything logged for one step; the steps.jsonl row is every field
    but loss_shaping, in this order."""

    step: int
    reward_base_mean: float
    reward_mi_mean: float
    reward_std: float
    loss_total: float
    loss_grpo: float
    loss_sami: float
    loss_ot: float
    mi_row_clean: float
    mi_col_clean: float
    grad_norm: float
    entropy: float
    clean_count: int
    # NaN when the fit behind it raised; geometry_degenerate is then true,
    # and also when frechet is a roundoff-negative value clamped to 0.
    frechet: float
    effrank: float
    pr: float
    geometry_degenerate: bool = False
    beta: float = 1.0
    # The Sinkhorn solve: cross-term iterations (levels plus Newton
    # iterations) and final L1 row violation, and whether all three
    # solves converged; None before ot_warmup.
    ot_iters: int | None = None
    ot_violation: float | None = None
    ot_converged: bool | None = None
    # Always 0: the objective has no shaping term; perfbench's loss check reads it.
    loss_shaping: float = 0.0

    def jsonl_row(self) -> dict:
        """The steps.jsonl row; NaN becomes None (null), so the row is strict JSON."""
        row = {k: getattr(self, k) for k in STEPS_JSONL_FIELDS}
        return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}


STEPS_JSONL_FIELDS = tuple(f.name for f in fields(StepReport) if f.name != "loss_shaping")
# The StepReport fields a committed step holds finite; the rest may be NaN (null).
_FINITE_FIELDS = ("reward_base_mean", "reward_mi_mean", "reward_std", "loss_total",
                  "loss_grpo", "loss_sami", "loss_ot", "grad_norm")


def _geometry(cur: rep_metrics.EmpiricalMeasure, ref: rep_metrics.EmpiricalMeasure) -> tuple:
    """(frechet, effrank, pr, degenerate) of the current and reference clouds.

    Each cloud is fitted once.  The Fréchet cross term comes from the two
    fits' centred points (no matrix square root); the spectrum is the
    eigvalsh of the current fit's covariance, which only the current fit
    takes."""
    try:
        cur_fit = rep_metrics.fit_gaussian(cur)
    except ValidationError:
        return math.nan, math.nan, math.nan, True
    degenerate = False
    # A clamp is raised, so it flags the step instead of warning; any other
    # warning reaches the caller.
    with warnings.catch_warnings():
        warnings.simplefilter("error", rep_metrics.FrechetClampWarning)
        try:
            frechet = rep_metrics.frechet_distance(cur_fit, rep_metrics.fit_gaussian(ref))
        except rep_metrics.FrechetClampWarning:
            frechet, degenerate = 0.0, True
        except ValidationError:
            frechet, degenerate = math.nan, True
    try:
        dims = rep_metrics.effective_dims(cur_fit.spectrum())
        effrank, pr = dims["effrank"], dims["participation_ratio"]
    except ValidationError:
        effrank, pr, degenerate = math.nan, math.nan, True
    return float(frechet), float(effrank), float(pr), degenerate


def _sami_weights(losses: dict, w_sami: float, lam_row: float,
                  lam_col: float) -> np.ndarray:
    """d(w_sami * sami)/d(scores) for the kept-row matrix, from the row and
    column softmaxes of its `mi.infonce_losses`."""
    n = losses["row_softmax"].shape[0]
    eye = np.eye(n)
    d_row = -(eye - losses["row_softmax"]) / n
    d_col = -(eye - losses["col_softmax"]) / n
    return w_sami * (lam_row * d_row + lam_col * d_col)


class Trainer:
    """Owns the mutable policy, reference snapshot, and autoscaler state; it
    runs `config`, a `cli.RunConfig`, seed and max_steps included."""

    def __init__(self, policy: ToyPolicy, task: ToyTask, config):
        if len(task.principles) < 2:
            raise ValidationError("shadow principles need a pool of at least two")
        self.policy = policy
        self.task = task
        self.config = config
        self.step = 0
        self.reference = policy.clone()
        self.autoscaler = rewards.AutoscalerState()
        # Run constants (module docstring).  _grid[p, i] bags item i's prompt
        # with pool principle p, and _true[i] is item i's principle.
        self._true = np.array(task.true_columns, dtype=int)
        self._grid = np.ascontiguousarray(policy.bag_grid(
            [item.prompt for item in task.items],
            [p.tokens for p in task.principles]).transpose(1, 0, 2))
        true_weights = self._grid[self._true, np.arange(len(task.items))]
        self._ref_table = self.reference.forward(true_weights)

    # ---------- helpers ----------

    def _batch_items(self, step: int) -> np.ndarray:
        """Indices of the step's items, the batch's groups in order."""
        n = len(self.task.items)
        start = (step * PROMPTS_PER_BATCH) % n
        return (start + np.arange(PROMPTS_PER_BATCH)) % n

    def _step_table(self, item_idx) -> NextTokenTable:
        """The policy's table over the step's contexts: context p * G + g
        pairs group g's prompt with pool principle p."""
        return self.policy.forward(self._grid[:, item_idx].reshape(-1, self.policy.vocab.size))

    def _row_candidates(self, item_idx, groups, rng: np.random.Generator) -> np.ndarray:
        """(B, K+1) step contexts of each completion's true principle (column
        0) and K uniform shadow principles, drawn from rng."""
        cols = mi.shadow_candidates(rng, self._true[item_idx[groups]],
                                    len(self.task.principles), self.config.shadow_k)
        return cols * len(item_idx) + groups[:, None]

    def _col_candidates(self, b: int, rng: np.random.Generator) -> np.ndarray:
        """(B, K+1) completions {own, K shadows}, drawn from rng, to score
        under each completion's own rendered prompt."""
        return mi.shadow_candidates(rng, np.arange(b), b, self.config.shadow_k)

    # ---------- the step ----------

    def train_step(self) -> StepReport:
        """One full optimisation step; state mutates only on success.  A step
        whose `_FINITE_FIELDS` are not all finite (a weight or jitter so large
        that a loss or the gradient norm overflows) raises ValidationError
        naming the step and the fields, and commits nothing; numpy warns of
        no overflow in it."""
        config = self.config
        step = self.step
        item_idx = self._batch_items(step)
        n_groups = item_idx.size
        table = self._step_table(item_idx)
        own = self._true[item_idx] * n_groups + np.arange(n_groups)
        # The step's one stream, drawn in the module docstring's order.
        rng = np.random.default_rng((config.seed, step, 5))
        samples = self.policy.sample_groups(table, own, GROUP_SIZE, rng)
        groups = np.repeat(np.arange(n_groups), GROUP_SIZE)
        b = groups.size
        lengths = samples.lengths
        # Every score and gradient of the step goes through the completions'
        # transition counts: scores[c, i] is completion i under context c, and
        # coeffs[c, i] collects its weight in the loss gradient (GRPO and
        # SAMI) for the one backward pass.
        counts = samples.counts(self.policy.vocab.size)
        # Their row sums, exact as a product since the counts are integers,
        # serve both clouds' summaries and the OT gradient.
        row_counts = counts @ np.ones(self.policy.vocab.size)
        scores = table.seq_logprobs(counts)
        # Each completion's scores divided by its length, once: the row,
        # column and SAMI blocks gather their entries from it.
        norm = scores / lengths
        coeffs = np.zeros_like(scores)

        entropies = samples.mean_entropies()
        entropy_mask = rewards.entropy_gate(entropies)
        format_ok = rewards.format_ok(samples.tokens, lengths, samples.truncated,
                                      self.policy.vocab)

        # Candidate scores; the positive is column 0.
        row_scores = norm[self._row_candidates(item_idx, groups, rng), np.arange(b)[:, None]]
        col_scores = norm[own[groups][:, None], self._col_candidates(b, rng)]
        clean = mi.clean_mi_bounds(row_scores, col_scores, format_ok & entropy_mask)

        # The on-policy GRPO term is over untruncated completions (module
        # docstring), and so is the SAMI matrix: entry (i, j) scores
        # completion kept[i] under the true context of completion kept[j].
        kept = np.flatnonzero(~samples.truncated)
        n_kept = max(1, kept.size)
        lam_row, lam_col = rowcol_anneal(step, config.max_steps)
        w_sami = sami_weight_at(config, step)
        losses = None
        if kept.size >= 2:
            losses = mi.infonce_losses(norm[own[groups[kept]]][:, kept].T)

        cur_summaries = table.summaries(own[groups], row_counts)
        cur_measure = rep_metrics.EmpiricalMeasure(cur_summaries[0])
        ref_measure = rep_metrics.EmpiricalMeasure(
            self._ref_table.summaries(item_idx[groups], row_counts)[0])
        ot_on = config.ot_weight > 0 and step >= config.ot_warmup
        ot_stats = {"iterations": None, "violation": None, "converged": None}
        if ot_on:
            ot_value, point_grad, ot_stats = ot.sinkhorn_divergence_with_grad(
                cur_measure, ref_measure, BLUR ** 2)
        frechet, effrank, pr, degenerate = _geometry(cur_measure, ref_measure)

        # Every value computed here feeds a _FINITE_FIELDS field or the
        # gradient behind grad_norm, so a weight or jitter that overflows it is
        # refused below; numpy's warnings would only repeat the refusal.
        with np.errstate(over="ignore", invalid="ignore"):
            base = format_ok.astype(float)
            if config.jitter_sigma > 0:
                base = base + config.jitter_sigma * rng.standard_normal(b)
            format_gate_on = rewards.format_gate_schedule(step, MI_WARMUP_STEPS)
            mi_reward = np.zeros(b)
            if config.channel_weight > 0:
                z = mi.row_positive_logsoftmax(row_scores)
                gate_open = entropy_mask & (format_ok | (not format_gate_on))
                mi_reward = rewards.mi_tiebreak_rewards(
                    z, config.channel_weight, gate_open, self.autoscaler)
            adv, group_std = group_advantages((base + mi_reward).reshape(n_groups, -1))
            adv = adv.ravel()

            # The builtin sum adds the advantages in completion order.
            loss_grpo = sum(-adv[kept]) / n_kept
            coeffs[own[groups[kept]], kept] = -adv[kept] / self.policy.max_len / n_kept
            loss_sami = 0.0
            if losses is not None:
                loss_sami = lam_row * losses["row_loss"] + lam_col * losses["col_loss"]
                if w_sami > 0:
                    weights = _sami_weights(losses, w_sami, lam_row, lam_col)
                    np.add.at(coeffs, (own[groups[kept]][None, :], kept[:, None]),
                              weights / lengths[kept, None])

            loss_ot = 0.0
            feat_grad = None
            if ot_on:
                loss_ot = config.ot_weight * ot_value
                feat_grad = table.summary_feat_grad(own[groups], row_counts, cur_summaries,
                                                    config.ot_weight * point_grad)
            loss_total = loss_grpo + w_sami * loss_sami + loss_ot

            # np.tensordot(coeffs, counts, axes=1) is this np.dot, less its wrapper.
            coeff_counts = np.dot(coeffs, counts.reshape(b, -1)).reshape(-1, *counts.shape[1:])
            total_grad = self.policy.backward(table, logit_sums(coeff_counts), feat_grad)
            grad_norm = total_grad.global_norm()
            if grad_norm > GRAD_CLIP:
                total_grad = total_grad.scaled(GRAD_CLIP / grad_norm)
            finite = dict(zip(_FINITE_FIELDS, map(float, (
                base.mean(), mi_reward.mean(), group_std.mean(), loss_total,
                loss_grpo, loss_sami, loss_ot, grad_norm))))

        # Refused, not rescaled (that would change grad_norm's bits in every
        # run), so steps.jsonl holds only finite numbers and nulls.
        overflowed = [name for name, value in finite.items() if not math.isfinite(value)]
        if overflowed:
            raise ValidationError(f"step {step}: {', '.join(overflowed)} not finite")

        report = StepReport(
            step=step,
            **finite,
            mi_row_clean=clean["row_bound"],
            mi_col_clean=clean["col_bound"],
            entropy=float(entropies.mean()),
            clean_count=clean["clean_count"],
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
        self.policy.add_scaled(total_grad, -LEARNING_RATE)
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
        meta = {"step": self.step, "seed": self.config.seed,
                "max_steps": self.config.max_steps,
                "param_hash": self.policy.param_hash(), "config_hash": config_hash,
                "config_text": config_text,
                "vocab_size": self.policy.vocab.size, "dim": self.policy.dim,
                "max_len": self.policy.max_len, "schema": 1}
        np.savez(path, meta=json.dumps(meta, sort_keys=True), **self.policy.param_blocks(),
                 **{f"ref_{k}": v for k, v in self.reference.param_blocks().items()})
        return meta["param_hash"]


# The one .npy header np.savez writes for a checkpoint member: version 1.0, a
# little-endian float64 or unicode dtype, C order, and a shape tuple.
_NPY_HEADER = re.compile(rb"\x93NUMPY\x01\x00(..)\{'descr': '(<f8|<U[1-9]\d{0,7})', "
                         rb"'fortran_order': False, 'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n",
                         re.DOTALL)


def read_npy_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array np.savez stored as `name`, writable and C-contiguous.

    Reading the member checks its CRC.  It must be stored uncompressed with
    the exact header above, so nothing is unpickled; anything else is
    refused naming the member."""
    member = f"{name}.npy"
    try:
        stored = archive.getinfo(member).compress_type == zipfile.ZIP_STORED
        raw = archive.read(member) if stored else b""
    except KeyError:
        raise ValidationError(f"checkpoint has no member {name!r}") from None
    except (EOFError, NotImplementedError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"checkpoint member {name!r} does not read: "
                              f"{str(exc) or type(exc).__name__}") from None
    header = _NPY_HEADER.match(raw)
    if header is None or header.end() != 10 + int.from_bytes(header[1], "little"):
        raise ValidationError(f"checkpoint member {name!r} is not a stored .npy v1.0 "
                              f"array of C-order <f8 or <U")
    dtype = np.dtype(header[2].decode())
    shape = tuple(int(n) for n in header[3].replace(b",", b" ").split())
    if len(raw) - header.end() != math.prod(shape) * dtype.itemsize:
        raise ValidationError(f"checkpoint member {name!r} does not hold shape {shape}")
    return np.frombuffer(raw, dtype, offset=header.end()).reshape(shape).copy()


def _check_meta(meta) -> None:
    """Refuse a meta without the typed, in-range fields a load reads."""
    if not isinstance(meta, dict):
        raise ValidationError(f"checkpoint meta must be a JSON object, got {type(meta).__name__}")
    floors = {"step": 0, "vocab_size": 8, "dim": 1, "schema": 1}
    if "max_len" in meta:
        floors["max_len"] = 1
    for key, floor in floors.items():
        value = meta.get(key)
        if type(value) is not int or value < floor:
            raise ValidationError(f"checkpoint meta {key} must be an int of at least "
                                  f"{floor}, got {value!r}")
    for key in ("param_hash", "config_hash"):
        if not isinstance(meta.get(key), str):
            raise ValidationError(f"checkpoint meta {key} must be a string, "
                                  f"got {meta.get(key)!r}")


def load_checkpoint(path) -> tuple:
    """(policy, meta) from a snapshot; verifies the stored hash.

    A load reads the file once, then `meta` and the policy's parameter
    blocks with `read_npy_member`, so it accepts what np.savez writes: .npy v1.0
    members, a unicode 0-d `meta` and little-endian float64 blocks.  Each
    meta field's type and range is checked before any block is read, and
    each block's shape against the meta.  The reference snapshot (the
    `ref_*` members) stays unread, since probing a checkpoint needs only its
    policy.  A snapshot written before checkpoints kept max_len loads with
    DEFAULT_MAX_LEN.
    """
    with open(path, "rb") as fh:
        archive = zipfile.ZipFile(io.BytesIO(fh.read()))
    meta = read_npy_member(archive, "meta")
    if meta.dtype.kind != "U" or meta.shape != ():
        raise ValidationError("checkpoint member 'meta' is not a unicode string")
    try:
        meta = json.loads(str(meta))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"checkpoint member 'meta' is not JSON: {exc}") from None
    _check_meta(meta)
    # The blocks are read and checked against the meta before the policy is
    # built, so a meta that claims a huge vocabulary allocates nothing.
    v, d = meta["vocab_size"], meta["dim"]
    shapes = {"embed": (v, d), "out": (d, v), "ctx_scale": (d,), "prev_scale": (d,)}
    blocks = {name: read_npy_member(archive, name) for name in shapes}
    for name, block in blocks.items():
        if block.dtype != np.float64 or block.shape != shapes[name]:
            raise ValidationError(f"checkpoint block {name!r} is {block.dtype} of shape "
                                  f"{block.shape}, meta says float64 of {shapes[name]}")
    policy = ToyPolicy(Vocab(v), d, max_len=meta.get("max_len", DEFAULT_MAX_LEN))
    for name, block in blocks.items():
        setattr(policy, name, block)
    if policy.param_hash() != meta["param_hash"]:
        raise ValidationError("checkpoint parameter hash mismatch (corrupt file?)")
    return policy, meta
