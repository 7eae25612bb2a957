"""Desk-scale single-loop policy trainer with information-geometry metrology.

Subpackages by concern:

- prob_metrics: distances/angles between categorical distributions, path stats
- rep_metrics: Fréchet distance, effective rank, participation ratio
- ot: entropic optimal transport, Sinkhorn divergence, exact small oracles
- mi: score matrices, InfoNCE losses, contrastive MI bounds
- rewards: gates, tie-breaker channel, autoscaler
- task: the synthetic constitution-conditioned task and its gold continuations
- draws: numpy Generator's scalar draws for many seeds at once, bit for bit
- policy: the toy autoregressive policy and its maximum-likelihood warm starts
- trainer: group advantages, the on-policy GRPO term, the unified loss, train steps
- constitution: principle-set sufficiency evaluation
- cli: the geoloop command
"""

__version__ = "0.1.0"

from .errors import DimensionMismatchError, UnsupportedInstanceError, ValidationError

__all__ = ["DimensionMismatchError", "UnsupportedInstanceError", "ValidationError",
           "__version__"]
