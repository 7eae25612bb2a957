"""Desk-scale single-loop policy trainer with information-geometry metrology.

Modules by concern:

- prob_metrics: distances/angles between categorical distributions, path stats
- rep_metrics: Fréchet distance, effective rank, participation ratio
- ot: entropic optimal transport, Sinkhorn divergence, W2 on a line
- mi: score matrices, InfoNCE losses, contrastive MI bounds
- rewards: gates, tie-breaker channel, autoscaler
- task: the synthetic constitution-conditioned task and its gold continuations
- policy: the toy autoregressive policy and its maximum-likelihood warm starts
- trainer: group advantages, the on-policy GRPO term, the unified loss, train steps
- constitution: principle-set sufficiency evaluation
- cli: the geoloop command
- errors: ValidationError, the one type every bad input raises
"""

__version__ = "0.1.0"

from .errors import ValidationError

__all__ = ["ValidationError", "__version__"]
