"""Figures 7, 8 and 10, served: the selection experiments through Clipper.

Each experiment precomputes every model's output per query, deploys one
:func:`lookup` container per model, and serves the queries one at a time
through ``Clipper.predict``, each followed by ``Clipper.feedback`` when the
figure has feedback.  A policy is named only by its ``selection_policy``
string and runs at the served defaults.  Query ``t``'s input is the int
``t``: it keys the outputs, and being unique the cache cannot change an answer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from paperkit.mlkit import metrics as mlmetrics
from repro.containers.base import FunctionContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Feedback, Prediction, Query

APP = "figures"
#: An SLO no figure tests, so that a busy host cannot make a model a straggler.
SLO_MS = 60_000.0


def lookup(outputs: Sequence[Any]) -> FunctionContainer:
    """One model's container: it answers query ``t`` with ``outputs[t]``."""
    return FunctionContainer(lambda keys: [outputs[t] for t in keys])


def serve(
    policy: str, outputs: Dict[str, Sequence[Any]], labels: Optional[Sequence[Any]] = None,
    users: Optional[Sequence[str]] = None,
) -> List[Prediction]:
    """Serve queries ``0 .. n-1`` in order through one Clipper running ``policy``.

    ``outputs`` maps each model's name to its ``n`` outputs.  ``labels[t]``,
    when given, is fed back right after query ``t`` is answered; ``users[t]``
    is query ``t``'s ``user_id``, the context its selection state is kept in.
    """
    return asyncio.run(_serve(policy, outputs, labels, users))


async def _serve(policy, outputs, labels, users) -> List[Prediction]:
    clipper = Clipper(ClipperConfig(app_name=APP, selection_policy=policy, latency_slo_ms=SLO_MS))
    for name in sorted(outputs):
        clipper.deploy_model(ModelDeployment(name, partial(lookup, outputs[name])))
    await clipper.start()
    try:
        answers = []
        for t in range(len(next(iter(outputs.values())))):
            user = None if users is None else users[t]
            answers.append(await clipper.predict(Query(APP, t, user_id=user)))
            if labels is not None:
                await clipper.feedback(Feedback(APP, t, labels[t], user_id=user))
        return answers
    finally:
        await clipper.stop()


def running_error(outputs: Sequence[Any], truth: Sequence[Any]) -> np.ndarray:
    """Cumulative average 0/1 error after each query."""
    wrong = np.fromiter((o != y for o, y in zip(outputs, truth)), float, len(truth))
    return np.cumsum(wrong) / np.arange(1, len(truth) + 1)


@dataclass
class EnsembleAccuracyResult:
    """Figure 7: error of the best single model, the ensemble, and the
    confident (at least ``agreement_threshold`` models agree) and unsure groups."""

    dataset: str
    single_model_error: float
    ensemble_error: float
    confident_error: float
    unsure_error: float
    confident_fraction: float
    agreement_threshold: int
    per_model_errors: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, Any]:
        """One table row; its keys are the same for every threshold, so rows
        of several thresholds share one header."""
        return {
            "dataset": self.dataset, "single_model": self.single_model_error,
            "ensemble": self.ensemble_error,
            "agreement": f"{self.agreement_threshold}-agree", "confident": self.confident_error,
            "unsure": self.unsure_error, "confident_fraction": self.confident_fraction,
        }


def ensemble_accuracy_experiment(
    model_predictions: Dict[str, np.ndarray], y_true: np.ndarray,
    agreement_threshold: Optional[int] = None, dataset: str = "dataset",
) -> EnsembleAccuracyResult:
    """One panel of Figure 7: serve ``"exp4"`` without feedback over the eval set.

    A query is confident when ``agreement_threshold`` models (default: all,
    the paper's 5-agree group) agree with the answer, as
    ``Prediction.confidence`` (the agreeing share of the ensemble) says.
    """
    if not model_predictions:
        raise ValueError("model_predictions must be non-empty")
    y_true, n_models = np.asarray(y_true), len(model_predictions)
    if agreement_threshold is None:
        agreement_threshold = n_models
    if not 1 <= agreement_threshold <= n_models:
        raise ValueError("agreement_threshold must be in [1, n_models]")
    per_model_errors = {
        name: mlmetrics.error_rate(y_true, np.asarray(predictions))
        for name, predictions in sorted(model_predictions.items())
    }
    answers = serve("exp4", model_predictions)
    labels = np.array([answer.output for answer in answers])
    confident = np.array([round(a.confidence * n_models) >= agreement_threshold for a in answers])

    def error(mask: np.ndarray) -> float:
        return mlmetrics.error_rate(y_true[mask], labels[mask]) if mask.any() else float("nan")

    return EnsembleAccuracyResult(
        dataset, min(per_model_errors.values()), mlmetrics.error_rate(y_true, labels),
        error(confident), error(~confident), float(confident.mean()), agreement_threshold,
        per_model_errors,
    )


@dataclass
class ModelFailureResult:
    """Figure 8: cumulative average error trajectories for base models and policies."""

    num_queries: int
    degrade_start: int
    degrade_end: int
    cumulative_errors: Dict[str, np.ndarray] = field(default_factory=dict)

    def final_errors(self) -> Dict[str, float]:
        return {name: float(curve[-1]) for name, curve in self.cumulative_errors.items()}


def degrade_prediction(
    prediction: Any, n_classes: int, rng: np.random.Generator, corruption_rate: float = 0.9
) -> Any:
    """Figure 8's "severe model degradation": with probability
    ``corruption_rate``, a uniformly random wrong label instead of ``prediction``."""
    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError("corruption_rate must be in [0, 1]")
    if rng.random() >= corruption_rate:
        return prediction
    wrong = int(rng.integers(0, n_classes))
    if wrong == prediction:
        wrong = (wrong + 1) % n_classes
    return wrong


def model_failure_experiment(
    model_predictions: Dict[str, np.ndarray], y_true: np.ndarray, num_queries: int = 20000,
    degrade_start: int = 5000, degrade_end: int = 10000, degraded_model: Optional[str] = None,
    n_classes: Optional[int] = None, corruption_rate: float = 0.9, random_state: int = 0,
) -> ModelFailureResult:
    """Figure 8: degrade one model mid-stream and watch the policies recover.

    Queries sample the eval set; from ``degrade_start`` to ``degrade_end`` one
    model's (default: the most accurate) outputs are corrupted.  The stream is
    precomputed, then served to ``"exp3"`` and ``"exp4"`` with feedback."""
    if not model_predictions:
        raise ValueError("model_predictions must be non-empty")
    if not 0 <= degrade_start <= degrade_end <= num_queries:
        raise ValueError("require 0 <= degrade_start <= degrade_end <= num_queries")
    y_true, names = np.asarray(y_true), sorted(model_predictions)
    rng = np.random.default_rng(random_state)
    n_classes = n_classes or int(np.unique(y_true).shape[0])
    degraded_model = degraded_model or min(
        names, key=lambda n: mlmetrics.error_rate(y_true, np.asarray(model_predictions[n]))
    )
    picks, stream = [], {name: [] for name in names}
    for t in range(num_queries):
        picks.append(int(rng.integers(0, y_true.shape[0])))
        for name in names:
            prediction = model_predictions[name][picks[-1]]
            if degrade_start <= t < degrade_end and name == degraded_model:
                prediction = degrade_prediction(prediction, n_classes, rng, corruption_rate)
            stream[name].append(prediction)
    truth = y_true[picks]
    cumulative = {name: running_error(stream[name], truth) for name in names}
    for label, policy in (("Exp3", "exp3"), ("Exp4", "exp4")):
        answers = serve(policy, stream, labels=truth)
        cumulative[label] = running_error([answer.output for answer in answers], truth)
    return ModelFailureResult(num_queries, degrade_start, degrade_end, cumulative)


@dataclass
class PersonalizationResult:
    """Figure 10: error versus feedback count for the three selection strategies."""

    feedback_counts: List[int]
    static_dialect_error: List[float]
    no_dialect_error: List[float]
    clipper_policy_error: List[float]

    def as_rows(self) -> List[Dict[str, float]]:
        return [
            {"feedback": count, "static_dialect": self.static_dialect_error[i],
             "no_dialect": self.no_dialect_error[i], "clipper_policy": self.clipper_policy_error[i]}
            for i, count in enumerate(self.feedback_counts)
        ]


def personalization_experiment(
    user_streams: Dict[str, List[Tuple[int, Dict[str, object], object]]],
    dialect_of_user: Dict[str, int], dialect_model_name: Dict[int, str],
    global_model_name: str, max_feedback: int = 8,
) -> PersonalizationResult:
    """Figure 10: per-user online selection versus static choices.

    ``user_streams[user]`` holds that user's ``(step, per_model_predictions,
    true_label)`` in order; the steps up to ``max_feedback`` are served to
    ``"exp4"`` with feedback and the user as ``user_id`` (§5.3's contexts)."""
    if not user_streams:
        raise ValueError("user_streams must be non-empty")
    users, steps, per_model, truth = zip(*(
        (user, step, outputs, label)
        for user, stream in user_streams.items()
        for step, outputs, label in stream if step <= max_feedback
    ))
    columns = {name: [p[name] for p in per_model] for name in per_model[0]}
    answers = serve("exp4", columns, labels=truth, users=users)
    counts = np.bincount(steps, minlength=max_feedback + 1)
    valid = counts > 0

    def by_step(outputs) -> List[float]:
        wrong = [float(o != y) for o, y in zip(outputs, truth)]
        return list(np.bincount(steps, wrong, minlength=max_feedback + 1)[valid] / counts[valid])

    dialect = [dialect_model_name[dialect_of_user[user]] for user in users]
    return PersonalizationResult(
        [int(i) for i in np.flatnonzero(valid)],
        by_step(p[d] for p, d in zip(per_model, dialect)),
        by_step(p[global_model_name] for p in per_model),
        by_step(answer.output for answer in answers),
    )
