"""Selection-layer experiment drivers (Figures 7, 8 and 10).

These experiments exercise the model selection layer directly on top of
precomputed model predictions: the serving stack is not needed to study the
statistical behaviour of ensembles and bandit policies, and running them at
the selection layer keeps the benchmarks fast and deterministic.  Figure 9's
straggler mitigation is the serving path's own, so it runs on the engine, in
``tests/test_paper_figures.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from paperkit.mlkit import metrics as mlmetrics
from repro.core.types import ModelId
from repro.selection.ensemble import weighted_vote
from repro.selection.exp3 import Exp3Policy
from repro.selection.exp4 import Exp4Policy
from repro.selection.policy import SelectionPolicy


# ---------------------------------------------------------------------------
# Figure 7: ensemble accuracy and agreement-based confidence
# ---------------------------------------------------------------------------


@dataclass
class EnsembleAccuracyResult:
    """Error rates of single model vs ensemble vs confidence-filtered subsets."""

    dataset: str
    single_model_error: float
    ensemble_error: float
    confident_error: float
    unsure_error: float
    confident_fraction: float
    agreement_threshold: int
    per_model_errors: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, float]:
        return {
            "dataset": self.dataset,
            "single_model": self.single_model_error,
            "ensemble": self.ensemble_error,
            f"{self.agreement_threshold}-agree (confident)": self.confident_error,
            "unsure": self.unsure_error,
            "confident_fraction": self.confident_fraction,
        }


def ensemble_accuracy_experiment(
    model_predictions: Dict[str, np.ndarray],
    y_true: np.ndarray,
    agreement_threshold: Optional[int] = None,
    dataset: str = "dataset",
) -> EnsembleAccuracyResult:
    """Reproduce one panel of Figure 7 from per-model label predictions.

    Parameters
    ----------
    model_predictions:
        Mapping of model name to its predicted labels on the evaluation set.
    y_true:
        Ground-truth labels.
    agreement_threshold:
        Number of agreeing models required to call a prediction "confident";
        defaults to the full ensemble size (the paper's 5-agree group).
    """
    if not model_predictions:
        raise ValueError("model_predictions must be non-empty")
    y_true = np.asarray(y_true)
    names = sorted(model_predictions)
    n_models = len(names)
    if agreement_threshold is None:
        agreement_threshold = n_models
    if not 1 <= agreement_threshold <= n_models:
        raise ValueError("agreement_threshold must be in [1, n_models]")

    per_model_errors = {
        name: mlmetrics.error_rate(y_true, np.asarray(model_predictions[name]))
        for name in names
    }
    best_single = min(per_model_errors.values())

    n = y_true.shape[0]
    ensemble_labels = np.empty(n, dtype=y_true.dtype)
    agreements = np.empty(n, dtype=int)
    for i in range(n):
        votes = {name: model_predictions[name][i] for name in names}
        label, _ = weighted_vote(votes)
        ensemble_labels[i] = label
        agreements[i] = sum(1 for name in names if model_predictions[name][i] == label)

    ensemble_error = mlmetrics.error_rate(y_true, ensemble_labels)
    confident_mask = agreements >= agreement_threshold
    confident_fraction = float(confident_mask.mean())
    confident_error = (
        mlmetrics.error_rate(y_true[confident_mask], ensemble_labels[confident_mask])
        if confident_mask.any()
        else float("nan")
    )
    unsure_error = (
        mlmetrics.error_rate(y_true[~confident_mask], ensemble_labels[~confident_mask])
        if (~confident_mask).any()
        else float("nan")
    )
    return EnsembleAccuracyResult(
        dataset=dataset,
        single_model_error=best_single,
        ensemble_error=ensemble_error,
        confident_error=confident_error,
        unsure_error=unsure_error,
        confident_fraction=confident_fraction,
        agreement_threshold=agreement_threshold,
        per_model_errors=per_model_errors,
    )


# ---------------------------------------------------------------------------
# Figure 8: Exp3 / Exp4 behaviour under model failure
# ---------------------------------------------------------------------------


@dataclass
class ModelFailureResult:
    """Cumulative average error trajectories for base models and policies."""

    num_queries: int
    degrade_start: int
    degrade_end: int
    cumulative_errors: Dict[str, np.ndarray] = field(default_factory=dict)

    def final_errors(self) -> Dict[str, float]:
        return {name: float(curve[-1]) for name, curve in self.cumulative_errors.items()}


def degrade_prediction(
    prediction: Any,
    n_classes: int,
    rng: np.random.Generator,
    corruption_rate: float = 0.9,
) -> Any:
    """Corrupt a model prediction with the given probability.

    Used to simulate the "severe model degradation" of Figure 8: while the
    degradation window is active, the failing model's outputs are replaced by
    a uniformly random wrong label with probability ``corruption_rate``.
    """
    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError("corruption_rate must be in [0, 1]")
    if rng.random() >= corruption_rate:
        return prediction
    wrong = int(rng.integers(0, n_classes))
    if wrong == prediction:
        wrong = (wrong + 1) % n_classes
    return wrong


def model_failure_experiment(
    model_predictions: Dict[str, np.ndarray],
    y_true: np.ndarray,
    num_queries: int = 20000,
    degrade_start: int = 5000,
    degrade_end: int = 10000,
    degraded_model: Optional[str] = None,
    n_classes: Optional[int] = None,
    policies: Optional[Dict[str, SelectionPolicy]] = None,
    corruption_rate: float = 0.9,
    random_state: int = 0,
) -> ModelFailureResult:
    """Reproduce Figure 8: degrade the best model mid-stream and watch recovery.

    The query stream cycles through the evaluation set; between
    ``degrade_start`` and ``degrade_end`` the designated (by default the most
    accurate) model's predictions are corrupted.  Cumulative average error is
    tracked for every base model, plus Exp3 (single-model selection) and Exp4
    (ensemble selection) policies receiving immediate feedback.
    """
    if not model_predictions:
        raise ValueError("model_predictions must be non-empty")
    if not 0 <= degrade_start <= degrade_end <= num_queries:
        raise ValueError("require 0 <= degrade_start <= degrade_end <= num_queries")
    y_true = np.asarray(y_true)
    names = sorted(model_predictions)
    predictions = {name: np.asarray(model_predictions[name]) for name in names}
    n_eval = y_true.shape[0]
    rng = np.random.default_rng(random_state)
    if n_classes is None:
        n_classes = int(np.unique(y_true).shape[0])

    if degraded_model is None:
        errors = {n: mlmetrics.error_rate(y_true, predictions[n]) for n in names}
        degraded_model = min(names, key=lambda n: errors[n])

    if policies is None:
        policies = {
            "Exp3": Exp3Policy(eta=0.2, exploration=0.05, seed=random_state),
            "Exp4": Exp4Policy(eta=0.3),
        }
    model_ids = [ModelId(name) for name in names]
    policy_states = {label: policy.init(model_ids) for label, policy in policies.items()}

    cumulative = {name: np.zeros(num_queries) for name in names}
    for label in policies:
        cumulative[label] = np.zeros(num_queries)
    running = {name: 0.0 for name in cumulative}

    for t in range(num_queries):
        idx = int(rng.integers(0, n_eval))
        truth = y_true[idx]
        in_window = degrade_start <= t < degrade_end
        per_model: Dict[str, object] = {}
        for name in names:
            prediction = predictions[name][idx]
            if in_window and name == degraded_model:
                prediction = degrade_prediction(
                    prediction, n_classes, rng, corruption_rate=corruption_rate
                )
            per_model[name] = prediction
            running[name] += 0.0 if prediction == truth else 1.0
            cumulative[name][t] = running[name] / (t + 1)

        for label, policy in policies.items():
            state = policy_states[label]
            selected = policy.select(state, idx)
            available = {key: per_model[key.split(":", 1)[0]] for key in selected}
            output, _ = policy.combine(state, idx, available)
            running[label] += 0.0 if output == truth else 1.0
            cumulative[label][t] = running[label] / (t + 1)
            # Immediate feedback: the policy observes the prediction(s) it saw.
            policy_states[label] = policy.observe(state, idx, truth, available)

    return ModelFailureResult(
        num_queries=num_queries,
        degrade_start=degrade_start,
        degrade_end=degrade_end,
        cumulative_errors=cumulative,
    )


# ---------------------------------------------------------------------------
# Figure 10: personalized (contextual) model selection
# ---------------------------------------------------------------------------


@dataclass
class PersonalizationResult:
    """Error versus feedback count for the three selection strategies."""

    feedback_counts: List[int]
    static_dialect_error: List[float]
    no_dialect_error: List[float]
    clipper_policy_error: List[float]

    def as_rows(self) -> List[Dict[str, float]]:
        rows = []
        for i, count in enumerate(self.feedback_counts):
            rows.append(
                {
                    "feedback": count,
                    "static_dialect": self.static_dialect_error[i],
                    "no_dialect": self.no_dialect_error[i],
                    "clipper_policy": self.clipper_policy_error[i],
                }
            )
        return rows


def personalization_experiment(
    user_streams: Dict[str, List[Tuple[int, Dict[str, object], object]]],
    dialect_of_user: Dict[str, int],
    dialect_model_name: Dict[int, str],
    global_model_name: str,
    policy: Optional[SelectionPolicy] = None,
    max_feedback: int = 8,
) -> PersonalizationResult:
    """Reproduce Figure 10: per-user online selection versus static choices.

    Parameters
    ----------
    user_streams:
        For each user id, an ordered list of interaction tuples
        ``(step, per_model_predictions, true_label)``.
    dialect_of_user:
        The dialect each user reported.
    dialect_model_name:
        The model trained for each dialect (the "static dialect" strategy).
    global_model_name:
        The dialect-oblivious model (the "no dialect" strategy).
    policy:
        The Clipper selection policy (default: Exp4) instantiated *per user*,
        exactly like the contextualized selection state of §5.3.
    max_feedback:
        Number of feedback rounds plotted on the x-axis.
    """
    if policy is None:
        policy = Exp4Policy(eta=0.5)
    if not user_streams:
        raise ValueError("user_streams must be non-empty")

    static_errors = np.zeros(max_feedback + 1)
    global_errors = np.zeros(max_feedback + 1)
    policy_errors = np.zeros(max_feedback + 1)
    counts = np.zeros(max_feedback + 1)

    for user, stream in user_streams.items():
        dialect = dialect_of_user[user]
        dialect_model = dialect_model_name[dialect]
        model_names = sorted(stream[0][1]) if stream else []
        model_ids = [ModelId(name) for name in model_names]
        state = policy.init(model_ids)
        for step, per_model, truth in stream:
            if step > max_feedback:
                break
            key_map = {str(ModelId(name)): per_model[name] for name in model_names}
            selected = policy.select(state, step)
            available = {key: key_map[key] for key in selected if key in key_map}
            output, _ = policy.combine(state, step, available)

            static_errors[step] += 0.0 if per_model[dialect_model] == truth else 1.0
            global_errors[step] += 0.0 if per_model[global_model_name] == truth else 1.0
            policy_errors[step] += 0.0 if output == truth else 1.0
            counts[step] += 1
            state = policy.observe(state, step, truth, key_map)

    valid = counts > 0
    feedback_counts = [int(i) for i in np.arange(max_feedback + 1)[valid]]
    return PersonalizationResult(
        feedback_counts=feedback_counts,
        static_dialect_error=list(static_errors[valid] / counts[valid]),
        no_dialect_error=list(global_errors[valid] / counts[valid]),
        clipper_policy_error=list(policy_errors[valid] / counts[valid]),
    )
