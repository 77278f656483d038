"""Ensemble combination helpers: voting and agreement-based confidence.

The paper's ensemble selection policy computes a weighted combination of the
base-model predictions and reports a *confidence* equal to the fraction of
models agreeing with the final prediction (§5.2.1).  Under straggler
mitigation, missing predictions lower the confidence because fewer models
can agree (§5.2.2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import SelectionPolicyError


def majority_vote(predictions: Dict[str, Any]) -> Tuple[Any, float]:
    """Unweighted majority vote.

    Returns ``(winning_label, agreement_fraction)`` where the fraction is
    computed over the models present in ``predictions``.  Ties are broken by
    the smallest label repr for determinism.
    """
    return weighted_vote(predictions, weights=None)


def weighted_vote(
    predictions: Dict[str, Any],
    weights: Optional[Dict[str, float]] = None,
    ensemble_size: Optional[int] = None,
) -> Tuple[Any, float]:
    """Weight-aware vote, in one pass over the available model predictions.

    ``predictions`` maps model key to predicted label (missing models
    omitted).  The optional per-model ``weights`` may have any scale: one that
    is missing, non-positive or under 1e-9 of the positive total counts as
    1e-9 of it, so a model never fully disappears from the vote; when none is
    positive every model counts the same.  Returns the winning label and the
    *unweighted* fraction of ``ensemble_size`` (the models that should have
    answered; by default those that did) that predicted it — the paper's
    agreement-based confidence measure.
    """
    if not predictions:
        raise ValueError("cannot combine an empty prediction map")
    floor, weights = 1.0, weights or ()
    if weights:
        total = 0.0
        for weight in weights.values():
            if weight > 0:
                total += weight
        if total <= 0:  # none has earned a weight (a stranger still counts less)
            weights, total = dict.fromkeys(weights, 1.0), len(weights)
        floor = 1e-9 * total
    totals: Dict[Any, float] = {}
    counts: Dict[Any, int] = {}
    for model_key, label in predictions.items():
        weight = floor
        if model_key in weights:
            weight = weights[model_key]
            if weight < floor:
                weight = floor
        try:
            seen = label in totals
        except TypeError:
            raise SelectionPolicyError(
                f"cannot vote on the unhashable {type(label).__name__} from model '{model_key}'"
            ) from None
        if seen:
            totals[label] += weight
            counts[label] += 1
        else:
            totals[label] = weight
            counts[label] = 1
            winner = label
    if len(totals) > 1:
        winner = min(totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))[0]
    return winner, counts[winner] / (ensemble_size or len(predictions))


def normalize_weights(weights: Dict[str, float]) -> Dict[str, float]:
    """Scale weights to sum to one (uniform if all weights are non-positive)."""
    if not weights:
        raise ValueError("weights must be non-empty")
    total = sum(max(w, 0.0) for w in weights.values())
    if total <= 0:
        uniform = 1.0 / len(weights)
        return {key: uniform for key in weights}
    return {key: max(w, 0.0) / total for key, w in weights.items()}
