"""Exp3 single-model selection policy (paper §5.1).

Exp3 treats model selection as an adversarial multi-armed bandit: each
deployed model carries a weight ``s_i`` (initialised to 1); a model is
selected with probability ``p_i = s_i / Σ s_j``; after feedback with loss
``L(y, ŷ) ∈ [0, 1]``, the selected model's weight is updated as
``s_i ← s_i · exp(−η · L / p_i)``.  Only one model is evaluated per query,
so the policy has minimal computational overhead, and its regret guarantees
ensure it converges to the single best model.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.policy import SelectionPolicy, SelectionState, reweighted


class Exp3Policy(SelectionPolicy):
    """Single-model selection with the Exp3 bandit algorithm.

    Parameters
    ----------
    eta:
        Learning rate η controlling how quickly recent feedback moves the
        weights ("determines how quickly Clipper responds to recent feedback").
    exploration:
        Extra uniform-exploration mass γ mixed into the sampling distribution,
        as in the original Exp3 formulation; 0 reproduces the paper's
        plain weight-proportional sampling.
    seed:
        Seed for the sampling RNG (per-policy-object, not per-state).
    """

    name = "exp3"

    def __init__(self, eta: float = 0.1, exploration: float = 0.05, seed: int = 0) -> None:
        if eta <= 0:
            raise SelectionPolicyError("eta must be positive")
        if not 0.0 <= exploration < 1.0:
            raise SelectionPolicyError("exploration must be in [0, 1)")
        self.eta = eta
        self.exploration = exploration
        self._rng = np.random.default_rng(seed)

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        keys = self._model_keys(model_ids)
        return {
            "policy": self.name,
            "weights": {key: 1.0 for key in keys},
            "n_feedback": 0,
        }

    def _probabilities(self, state: SelectionState) -> Tuple[List[str], List[float]]:
        weights = state["weights"]
        n = len(weights)
        total = sum(weights.values())
        if total <= 0:
            probs = [1.0 / n] * n
        else:
            probs = [weight / total for weight in weights.values()]
        if self.exploration > 0:
            keep, explore = 1.0 - self.exploration, self.exploration / n
            probs = [keep * p + explore for p in probs]
        total = sum(probs)
        return list(weights), [p / total for p in probs]

    def select(self, state: SelectionState, x: Any) -> List[str]:
        # ``Generator.choice(len(keys), p=probs)`` without its arrays: the same
        # one uniform draw looked up in the same normalised running sum.
        keys, probs = self._probabilities(state)
        cdf = list(accumulate(probs))
        return [keys[bisect_right([c / cdf[-1] for c in cdf], self._rng.random())]]

    def combine(
        self, state: SelectionState, x: Any, predictions: Dict[str, Any]
    ) -> Tuple[Any, float]:
        if not predictions:
            raise SelectionPolicyError("Exp3 combine called with no predictions")
        # Exactly one model was queried; its prediction is the output.  If the
        # straggler deadline dropped it, the caller falls back to a default.
        model_key = next(iter(predictions))
        return predictions[model_key], 1.0

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        probs = dict(zip(*self._probabilities(state)))
        return reweighted(state, {
            key: self.eta * self.loss(feedback, prediction) / max(probs[key], 1e-6)
            for key, prediction in predictions.items() if key in probs
        })
