"""UCB1 single-model selection (extension beyond the paper).

Upper-Confidence-Bound selection of the model with the best optimistic
reward estimate.  Unlike Exp3 it assumes stochastic (not adversarial)
losses, making it a useful comparison point: it converges faster on
stationary workloads but reacts more slowly to the sudden model failures of
the Figure 8 experiment.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.policy import SelectionPolicy, SelectionState, tallied


class UCB1Policy(SelectionPolicy):
    """UCB1 bandit over deployed models (reward = 1 − loss)."""

    name = "ucb"

    def __init__(self, exploration_coefficient: float = 1.4) -> None:
        if exploration_coefficient <= 0:
            raise SelectionPolicyError("exploration_coefficient must be positive")
        self.exploration_coefficient = exploration_coefficient

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        keys = self._model_keys(model_ids)
        return {
            "policy": self.name,
            "total_reward": {key: 0.0 for key in keys},
            "plays": {key: 0 for key in keys},
            "n_feedback": 0,
        }

    def select(self, state: SelectionState, x: Any) -> List[str]:
        keys = list(state["total_reward"].keys())
        # Play every arm once before applying the UCB formula.
        for key in keys:
            if state["plays"].get(key, 0) == 0:
                return [key]
        total_plays = sum(state["plays"][key] for key in keys)
        scores = {}
        for key in keys:
            plays = state["plays"][key]
            mean_reward = state["total_reward"][key] / plays
            bonus = self.exploration_coefficient * math.sqrt(
                math.log(max(total_plays, 2)) / plays
            )
            scores[key] = mean_reward + bonus
        best = max(keys, key=lambda key: (scores[key], key))
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
        rewards = {key: 1.0 - self.loss(feedback, p) for key, p in predictions.items()}
        return tallied(state, {"total_reward": rewards, "plays": dict.fromkeys(rewards, 1)})
