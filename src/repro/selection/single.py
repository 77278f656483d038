"""Static single-model policy: always query one designated (or first) model.

This is the "no model selection" baseline: the behaviour of a conventional
serving system that pins a single model chosen offline.  It is used by the
Figure 8 experiment to show the cost of static selection when a model
degrades, and by the TensorFlow-Serving comparison where only one model is
deployed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.policy import SelectionPolicy, SelectionState, tallied


class SingleModelPolicy(SelectionPolicy):
    """Always routes queries to one fixed model.

    Parameters
    ----------
    model_name:
        The ``"name:version"`` key (or bare name) of the pinned model; when
        omitted the first deployed model is used.
    """

    name = "single"

    def __init__(self, model_name: Optional[str] = None) -> None:
        self.model_name = model_name

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        keys = self._model_keys(model_ids)
        chosen = keys[0]
        if self.model_name is not None:
            matches = [
                key
                for key in keys
                if key == self.model_name or key.split(":", 1)[0] == self.model_name
            ]
            if not matches:
                raise SelectionPolicyError(
                    f"pinned model '{self.model_name}' is not deployed (have {keys})"
                )
            chosen = matches[0]
        return {"policy": self.name, "model": chosen, "all_models": keys, "n_feedback": 0}

    def select(self, state: SelectionState, x: Any) -> List[str]:
        return [state["model"]]

    def combine(
        self, state: SelectionState, x: Any, predictions: Dict[str, Any]
    ) -> Tuple[Any, float]:
        if not predictions:
            raise SelectionPolicyError("SingleModelPolicy combine called with no predictions")
        model = state["model"]
        if model in predictions:
            return predictions[model], 1.0
        # Should not normally happen, but fall back to any available prediction.
        return next(iter(predictions.values())), 0.0

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        return tallied(state, {})
