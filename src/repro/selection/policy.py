"""The model selection policy interface (paper Listing 2).

A selection policy is a *stateless strategy object* operating on an explicit,
serializable state value::

    interface SelectionPolicy<S, X, Y> {
        S init();
        List<ModelId> select(S s, X x);
        pair<Y, double> combine(S s, X x, Map<ModelId, Y> pred);
        S observe(S s, X x, Y feedback, Map<ModelId, Y> pred);
    }

Keeping the state external is what enables contextualization (§5.3): Clipper
instantiates one state per user/session/context, all driven by the same
policy object, and persists the states in an external store.

In this reproduction the state is a plain dict (JSON-friendly), the query
type ``X`` is opaque, and predictions ``Y`` are the model outputs returned by
the containers (class labels for the classification benchmarks).
"""

from __future__ import annotations

from importlib import import_module
from math import exp
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId

#: The selection state is a plain serializable dictionary.
SelectionState = Dict[str, Any]

#: Weights are clipped into this range so that a long streak of losses can
#: never drive a weight to exactly zero (which would freeze exploration) nor
#: overflow the exponential update.
_MIN_WEIGHT = 1e-6
_MAX_WEIGHT = 1e9


def reweighted(state: SelectionState, penalties: Dict[str, float]) -> SelectionState:
    """The state after one Exp3/Exp4 multiplicative-weights step, as a new value.

    ``w ← w · exp(−penalty)`` for each model in ``penalties`` (η-scaled loss);
    then all are rescaled to mean 1, ratios unchanged.  Clipped after both.
    """
    weights, total = {}, 0.0
    for key, weight in state["weights"].items():
        if key in penalties:
            weight = min(max(weight * exp(-penalties[key]), _MIN_WEIGHT), _MAX_WEIGHT)
        weights[key] = weight
        total += weight
    mean = total / len(weights)
    if mean > 0:
        for key, weight in weights.items():
            weights[key] = min(max(weight / mean, _MIN_WEIGHT), _MAX_WEIGHT)
    return {**state, "weights": weights, "n_feedback": state.get("n_feedback", 0) + 1}


def tallied(
    state: SelectionState, increments: Dict[str, Dict[str, float]], discount: float = 1.0
) -> SelectionState:
    """The state after one count-keeping feedback step, as a new value.

    ``increments[column][key]`` is added to ``state[column][key]`` — first
    scaled by ``discount`` when that forgets (< 1) — for the models the column
    already tracks; every touched column is a fresh dict.
    """
    updated = {**state, "n_feedback": state.get("n_feedback", 0) + 1}
    for column, deltas in increments.items():
        counts = dict(state[column])
        for key, delta in deltas.items():
            if key in counts:
                if discount < 1.0:
                    counts[key] *= discount
                counts[key] += delta
        updated[column] = counts
    return updated


class SelectionPolicy:
    """Base class for model selection policies.

    Subclasses implement the four functions of Listing 2.  Model ids are
    passed as strings (``"name:version"``) inside the state so that states
    remain serializable; the ``select`` return value uses the same strings.
    """

    name = "base"

    def init(self, model_ids: Sequence[ModelId]) -> SelectionState:
        """Return the initial state for a fresh context over ``model_ids``."""
        raise NotImplementedError

    def select(self, state: SelectionState, x: Any) -> List[str]:
        """Choose which deployed models to query for input ``x``.

        Reads ``state`` only: a query costs no store write.
        """
        raise NotImplementedError

    def combine(
        self, state: SelectionState, x: Any, predictions: Dict[str, Any]
    ) -> Tuple[Any, float]:
        """Combine the available model predictions into (output, confidence).

        ``predictions`` may contain only a subset of the selected models when
        straggler mitigation fired; policies must handle missing entries and
        reflect them in the confidence score (§5.2.2).
        """
        raise NotImplementedError

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        """Return the state that ground-truth ``feedback`` leads to.

        ``state`` is a value, never mutated: the store hands the same object
        to lock-free readers, and an ``observe`` that raises part-way must
        leave it as journaled.  The returned state — a new object, built by
        :func:`reweighted` or :func:`tallied` — is what gets stored.
        """
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _model_keys(model_ids: Sequence[ModelId]) -> List[str]:
        keys = [str(m) for m in model_ids]
        if not keys:
            raise SelectionPolicyError("at least one model must be deployed")
        if len(set(keys)) != len(keys):
            raise SelectionPolicyError("duplicate model ids passed to selection policy")
        return keys

    @staticmethod
    def loss(y_true: Any, y_pred: Any) -> float:
        """Default 0/1 loss in [0, 1] used as bandit feedback."""
        if y_pred is None:
            return 1.0
        return 0.0 if y_true == y_pred else 1.0


#: Every policy name :class:`ClipperConfig` accepts, to its module and class
#: (imported on use: the policy modules import this one).
POLICIES = {
    "exp3": ("exp3", "Exp3Policy"),
    "exp4": ("exp4", "Exp4Policy"),
    "single": ("single", "SingleModelPolicy"),
    "epsilon_greedy": ("epsilon_greedy", "EpsilonGreedyPolicy"),
    "thompson": ("thompson", "ThompsonSamplingPolicy"),
    "ucb": ("ucb", "UCB1Policy"),
}


def make_policy(name: str, **kwargs) -> SelectionPolicy:
    """Factory mapping policy names used in :class:`ClipperConfig` to objects."""
    if name not in POLICIES:
        raise SelectionPolicyError(
            f"unknown selection policy '{name}', expected one of {sorted(POLICIES)}"
        )
    module, cls = POLICIES[name]
    return getattr(import_module(f"repro.selection.{module}"), cls)(**kwargs)
