"""Thompson-sampling single-model selection (extension beyond the paper).

Each model's per-query success probability is modelled with a Beta
posterior; on every query a sample is drawn from each posterior and the
model with the highest sampled success rate is queried.  Thompson sampling
is a strong stochastic-bandit baseline that sits between epsilon-greedy and
Exp3 in the exploration spectrum: it adapts quickly on stationary workloads
and — because the posteriors keep finite width — it also recovers from model
degradation, although more slowly than the adversarially-robust Exp3.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.policy import SelectionPolicy, SelectionState, tallied


class ThompsonSamplingPolicy(SelectionPolicy):
    """Beta-Bernoulli Thompson sampling over deployed models.

    Parameters
    ----------
    prior_successes, prior_failures:
        Parameters of the Beta prior shared by every model (default Beta(1,1),
        the uniform prior).
    discount:
        Optional forgetting factor in (0, 1]; values below 1 exponentially
        discount old observations so the posterior can track non-stationary
        model quality (the Figure 8 failure scenario).
    seed:
        Seed of the sampling RNG (per-policy-object, not per-state).
    """

    name = "thompson"

    def __init__(
        self,
        prior_successes: float = 1.0,
        prior_failures: float = 1.0,
        discount: float = 1.0,
        seed: int = 0,
    ) -> None:
        if prior_successes <= 0 or prior_failures <= 0:
            raise SelectionPolicyError("Beta prior parameters must be positive")
        if not 0.0 < discount <= 1.0:
            raise SelectionPolicyError("discount must be in (0, 1]")
        self.prior_successes = prior_successes
        self.prior_failures = prior_failures
        self.discount = discount
        self._rng = np.random.default_rng(seed)

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        keys = self._model_keys(model_ids)
        return {
            "policy": self.name,
            "successes": {key: 0.0 for key in keys},
            "failures": {key: 0.0 for key in keys},
            "n_feedback": 0,
        }

    def select(self, state: SelectionState, x: Any) -> List[str]:
        keys = list(state["successes"].keys())
        samples = {}
        for key in keys:
            alpha = self.prior_successes + state["successes"][key]
            beta = self.prior_failures + state["failures"][key]
            samples[key] = float(self._rng.beta(alpha, beta))
        best = max(keys, key=lambda key: (samples[key], key))
        return [best]

    def combine(
        self, state: SelectionState, x: Any, predictions: Dict[str, Any]
    ) -> Tuple[Any, float]:
        if not predictions:
            raise SelectionPolicyError("combine called with no predictions")
        return next(iter(predictions.values())), 1.0

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        hits = {
            key: 1.0 if self.loss(feedback, p) == 0.0 else 0.0
            for key, p in predictions.items()
        }
        misses = {key: 1.0 - hit for key, hit in hits.items()}
        return tallied(state, {"successes": hits, "failures": misses}, self.discount)
