"""Strict format reward, gating, the MI tie-breaker channel, and its autoscaler.

The base reward is binary and format-only: 1.0 iff the whole completion is
exactly `<reasoning>...</reasoning><answer>...</answer>` (anchored, exactly
one pair of each tag, nothing outside).  Content is never inspected.  The
trainer scores it on the toy task's tokens with `policy.toy_format_reward`,
where the four tags are reserved tokens.

The tie-breaker channel converts a standardised row log-softmax z into a
small dense reward

    r_mi = gate * beta_t * channel_weight * sigmoid(slope * z),

gated by (a) a sequence-entropy quantile (nearest-rank, ties pass) and (b)
the format check once 30% of the MI warmup has elapsed.  An EMA autoscaler
nudges beta so the MI share of total reward magnitude tracks a target:

    rho_t = ema(|r_mi|) / ema(|r_base|),   beta <- beta * exp(eta * (rho* - rho_t)),

with beta clamped to [1e-3, 1e3].  EMA decay 0.99 and eta 0.05 are declared
defaults (tunable); the rho denominator is floored at 1e-8 so an all-zero
base reward early in training cannot divide by zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

BETA_MIN, BETA_MAX = 1e-3, 1e3
RHO_FLOOR = 1e-8


def entropy_gate(seq_entropies, quantile: float) -> np.ndarray:
    """Boolean mask of sequences at or below the batch entropy quantile.

    Nearest-rank quantile; ties at the threshold pass, so an all-equal batch
    passes entirely.  Empty input gives an empty mask.
    """
    if not (0.0 < quantile < 1.0):
        raise ValidationError("quantile must lie strictly between 0 and 1")
    ent = np.asarray(seq_entropies, dtype=float)
    if ent.size == 0:
        return np.zeros(0, dtype=bool)
    rank = max(1, math.ceil(quantile * ent.size))
    threshold = np.sort(ent)[rank - 1]
    return ent <= threshold


def format_gate_schedule(step: int, mi_warmup_steps: int) -> bool:
    """Format gating switches on after 30% of the MI warmup (boundary inclusive)."""
    if mi_warmup_steps < 0:
        raise ValidationError("warmup length cannot be negative")
    return step >= 0.3 * mi_warmup_steps


@dataclass(frozen=True)
class GateState:
    entropy_pass: bool
    format_pass: bool

    @property
    def open(self) -> bool:
        return self.entropy_pass and self.format_pass


@dataclass(frozen=True)
class AutoscalerState:
    """EMA magnitudes and the multiplicative scale of the MI channel."""

    ema_mi: float = 0.0
    ema_base: float = 0.0
    beta: float = 1.0
    target_ratio: float = 0.2
    rate: float = 0.05
    decay: float = 0.99

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.ema_mi < 0 or self.ema_base < 0:
            raise ValidationError("EMA magnitudes cannot be negative")
        if not (0.0 < self.target_ratio < 1.0):
            raise ValidationError("target ratio must lie in (0, 1)")


def mi_tiebreak_reward(z: float, slope: float, channel_weight: float,
                       gates: GateState, state: AutoscalerState) -> float:
    """Gated dense reward: gate * beta * channel_weight * sigmoid(slope * z)."""
    if slope <= 0:
        raise ValidationError("sigmoid slope must be positive")
    if channel_weight < 0:
        raise ValidationError("channel weight cannot be negative")
    if not gates.open or channel_weight == 0.0:
        return 0.0
    return state.beta * channel_weight / (1.0 + math.exp(-slope * float(z)))


def autoscale_update(state: AutoscalerState, batch_mi_mag: float,
                     batch_base_mag: float) -> AutoscalerState:
    """One EMA/beta update; the sign of the beta step equals sign(rho* - rho_t)."""
    ema_mi = state.decay * state.ema_mi + (1.0 - state.decay) * abs(float(batch_mi_mag))
    ema_base = state.decay * state.ema_base + (1.0 - state.decay) * abs(float(batch_base_mag))
    rho = ema_mi / max(ema_base, RHO_FLOOR)
    beta = state.beta * math.exp(state.rate * (state.target_ratio - rho))
    beta = min(max(beta, BETA_MIN), BETA_MAX)
    return replace(state, ema_mi=ema_mi, ema_base=ema_base, beta=beta)
