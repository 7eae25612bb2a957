"""Desk-scale single-loop policy trainer with information-geometry metrology.

Subpackages by concern:

- prob_metrics: distances/angles between categorical distributions, path stats
- rep_metrics: Fréchet distance, effective rank, participation ratio
- ot: entropic optimal transport, Sinkhorn divergence, exact small oracles
- mi: score matrices, InfoNCE losses, contrastive MI bounds
- rewards: gates, tie-breaker channel, autoscaler
- policy: the toy autoregressive policy and its synthetic task
- trainer: group advantages, clipped surrogate, the unified loss, train steps
- constitution: principle-set sufficiency evaluation
- cli: the geoloop command
"""

__version__ = "0.1.0"

from .errors import DimensionMismatchError, UnsupportedInstanceError, ValidationError

__all__ = ["DimensionMismatchError", "UnsupportedInstanceError", "ValidationError",
           "__version__"]
