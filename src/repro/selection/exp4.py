"""Exp4 ensemble selection policy (paper §5.2).

Exp4 ("Exp3 with expert advice") maintains a weight per base model and
combines *all* model predictions into a weighted vote, updating each model's
weight from its individual prediction error.  Unlike Exp3, whose accuracy is
bounded by the single best model, Exp4 can exceed the best base model as the
ensemble grows.  The combine step also produces the agreement-based
confidence score of §5.2.1, and under straggler mitigation it operates on
whatever subset of predictions arrived by the deadline (§5.2.2), reporting
the reduced agreement in the confidence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.ensemble import normalize_weights, weighted_vote
from repro.selection.policy import SelectionPolicy, SelectionState, reweighted


class Exp4Policy(SelectionPolicy):
    """Ensemble selection with Exp4-style multiplicative weight updates.

    Parameters
    ----------
    eta:
        Learning rate of the multiplicative weight update.

    Models selected for a query but missing from the available predictions
    (stragglers) count against the confidence: the paper defines confidence
    as "the fraction of models that agree on the prediction" out of the
    deployed ensemble.
    """

    name = "exp4"

    def __init__(self, eta: float = 0.2) -> None:
        if eta <= 0:
            raise SelectionPolicyError("eta must be positive")
        self.eta = eta

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        keys = self._model_keys(model_ids)
        return {
            "policy": self.name,
            "weights": {key: 1.0 for key in keys},
            "n_feedback": 0,
        }

    def select(self, state: SelectionState, x: Any) -> List[str]:
        # The ensemble policy always evaluates every deployed model.
        return list(state["weights"].keys())

    def combine(
        self, state: SelectionState, x: Any, predictions: Dict[str, Any]
    ) -> Tuple[Any, float]:
        if not predictions:
            raise SelectionPolicyError("Exp4 combine called with no predictions")
        weights = state["weights"]
        return weighted_vote(predictions, weights, len(weights))

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        # A model without a prediction for this query (straggler, or a cache
        # miss on the feedback path) keeps its weight.
        return reweighted(state, {
            key: self.eta * self.loss(feedback, predictions[key])
            for key in state["weights"] if key in predictions
        })

    def model_weights(self, state: SelectionState) -> Dict[str, float]:
        """Normalized view of the current ensemble weights (for reporting)."""
        return normalize_weights(state["weights"])
