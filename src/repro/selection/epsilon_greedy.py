"""Epsilon-greedy single-model selection (extension beyond the paper).

A simpler bandit than Exp3: with probability ε a random model is explored,
otherwise the model with the lowest observed mean loss is exploited.  It is
included as an additional selection policy demonstrating the pluggable
policy API, and as an ablation point against Exp3 in the benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.policy import SelectionPolicy, SelectionState, tallied


class EpsilonGreedyPolicy(SelectionPolicy):
    """ε-greedy bandit over deployed models using mean observed loss."""

    name = "epsilon_greedy"

    def __init__(self, epsilon: float = 0.1, seed: int = 0) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise SelectionPolicyError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self._rng = np.random.default_rng(seed)

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        keys = self._model_keys(model_ids)
        return {
            "policy": self.name,
            "total_loss": {key: 0.0 for key in keys},
            "plays": {key: 0 for key in keys},
            "n_feedback": 0,
        }

    def _mean_losses(self, state: SelectionState) -> Dict[str, float]:
        means = {}
        for key in state["total_loss"]:
            plays = state["plays"].get(key, 0)
            # Optimistic prior: unplayed models look perfect so they get tried.
            means[key] = state["total_loss"][key] / plays if plays > 0 else 0.0
        return means

    def select(self, state: SelectionState, x: Any) -> List[str]:
        keys = list(state["total_loss"].keys())
        if self._rng.random() < self.epsilon:
            return [keys[int(self._rng.integers(0, len(keys)))]]
        means = self._mean_losses(state)
        best = min(keys, key=lambda key: (means[key], key))
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
        losses = {key: self.loss(feedback, p) for key, p in predictions.items()}
        return tallied(state, {"total_loss": losses, "plays": dict.fromkeys(losses, 1)})
