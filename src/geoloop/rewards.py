"""Strict format reward, gating, the MI tie-breaker channel, and its autoscaler.

The base reward is binary and format-only: 1.0 iff the whole completion is
exactly `<reasoning>...</reasoning><answer>...</answer>` (anchored, exactly
one pair of each tag, nothing outside).  Content is never inspected.
`format_ok` is that check on the toy task's tokens, where the four tags are
reserved tokens.

The tie-breaker channel converts the row log-softmax z of
`mi.row_positive_logsoftmax` into a small dense reward

    r_mi = gate * beta_t * channel_weight * sigmoid(SIGMOID_SLOPE * z),

gated by (a) a sequence-entropy quantile (nearest-rank, ties pass) and (b)
the format check once 30% of the MI warmup has elapsed.  An EMA autoscaler
nudges beta so the MI share of total reward magnitude tracks a target:

    rho_t = ema(|r_mi|) / ema(|r_base|),   beta <- beta * exp(eta * (rho* - rho_t)),

with beta clamped to [1e-3, 1e3].  The slope, quantile, rho*, eta and EMA
decay are the constants below; the rho denominator is floored at 1e-8 so an
all-zero base reward early in training cannot divide by zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SIGMOID_SLOPE = 2.5
ENTROPY_QUANTILE = 0.8
AUTOSCALE_TARGET = 0.2
AUTOSCALE_ETA = 0.05
EMA_DECAY = 0.99
BETA_MIN, BETA_MAX = 1e-3, 1e3
RHO_FLOOR = 1e-8


def entropy_gate(seq_entropies) -> np.ndarray:
    """Boolean mask of sequences at or below the batch's ENTROPY_QUANTILE.

    Nearest-rank quantile; ties at the threshold pass, so an all-equal batch
    passes entirely.  Empty input gives an empty mask.
    """
    ent = np.asarray(seq_entropies, dtype=float)
    if ent.size == 0:
        return np.zeros(0, dtype=bool)
    rank = max(1, math.ceil(ENTROPY_QUANTILE * ent.size))
    threshold = np.sort(ent)[rank - 1]
    return ent <= threshold


def format_ok(tokens, lengths, truncated, vocab) -> np.ndarray:
    """Per row: not truncated, and its content (the row without its
    trailing EOS) is exactly one R_OPEN..R_CLOSE A_OPEN..A_CLOSE template
    with nothing outside.  The rows are a `policy.Samples`'s tokens, lengths
    and truncation flags.

    With exactly one of each tag and no EOS in the content, the template
    holds iff R_OPEN is first, A_CLOSE last and A_OPEN right after R_CLOSE.
    """
    n = lengths - 1
    content = np.arange(tokens.shape[1]) < n[:, None]
    tags = np.array([vocab.r_open, vocab.r_close, vocab.a_open, vocab.a_close])
    hits = (tokens[:, :, None] == tags) & content[:, :, None]
    at = hits.argmax(axis=1)
    return (~truncated & (hits.sum(axis=1) == 1).all(axis=1)
            & ~((tokens == vocab.eos) & content).any(axis=1)
            & (at[:, 0] == 0) & (at[:, 2] == at[:, 1] + 1) & (at[:, 3] == n - 1))


def format_gate_schedule(step: int, mi_warmup_steps: int) -> bool:
    """Format gating switches on after 30% of the MI warmup (boundary inclusive)."""
    if mi_warmup_steps < 0:
        raise ValidationError("warmup length cannot be negative")
    return step >= 0.3 * mi_warmup_steps


@dataclass(frozen=True)
class AutoscalerState:
    """EMA magnitudes and the multiplicative scale of the MI channel."""

    ema_mi: float = 0.0
    ema_base: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.ema_mi < 0 or self.ema_base < 0:
            raise ValidationError("EMA magnitudes cannot be negative")


def mi_tiebreak_reward(z: float, channel_weight: float, gate_open: bool,
                       state: AutoscalerState) -> float:
    """Gated dense reward: gate * beta * channel_weight * sigmoid(SIGMOID_SLOPE * z),
    as mi_tiebreak_rewards gives it for one completion."""
    return float(mi_tiebreak_rewards([z], channel_weight, [gate_open], state)[0])


def mi_tiebreak_rewards(z, channel_weight: float, gate_open,
                        state: AutoscalerState) -> np.ndarray:
    """gate_open[i] * beta * channel_weight * sigmoid(SIGMOID_SLOPE * z[i]) per completion.

    The exponential is math.exp's: np.exp rounds differently in the last bit
    on some arguments.  The trainer calls this only when channel_weight > 0.
    """
    if channel_weight < 0:
        raise ValidationError("channel weight cannot be negative")
    z = np.asarray(z, dtype=float)
    decay = np.fromiter(map(math.exp, (-SIGMOID_SLOPE * z).tolist()), dtype=float, count=z.size)
    return np.where(gate_open, state.beta * channel_weight / (1.0 + decay), 0.0)


def autoscale_update(state: AutoscalerState, batch_mi_mag: float,
                     batch_base_mag: float) -> AutoscalerState:
    """One EMA/beta update; the sign of the beta step equals sign(rho* - rho_t)."""
    ema_mi = EMA_DECAY * state.ema_mi + (1.0 - EMA_DECAY) * abs(float(batch_mi_mag))
    ema_base = EMA_DECAY * state.ema_base + (1.0 - EMA_DECAY) * abs(float(batch_base_mag))
    rho = ema_mi / max(ema_base, RHO_FLOOR)
    beta = state.beta * math.exp(AUTOSCALE_ETA * (AUTOSCALE_TARGET - rho))
    beta = min(max(beta, BETA_MIN), BETA_MAX)
    return AutoscalerState(ema_mi=ema_mi, ema_base=ema_base, beta=beta)
