"""Figure 8 — Exp3 and Exp4 behaviour under model failure.

Serves a 20K-query stream through Clipper's ``"exp3"`` and ``"exp4"``
policies at their served defaults, each query followed by its feedback,
against the five-model CIFAR-like ensemble; the best-performing model is
severely degraded after 5K queries and recovers after 10K.  Shape checks
mirror the paper: Exp4 converges near the best model before the failure,
both policies' cumulative error stays well below the degraded model's, and
both end within 0.05 of the best model that was not degraded.
"""

import numpy as np

from conftest import record_result
from paperkit.ab_testing import ABTestingSelection
from paperkit.served_selection import model_failure_experiment
from paperkit.reporting import format_table

NUM_QUERIES = 20000
DEGRADE_START = 5000
DEGRADE_END = 10000


def test_fig8_model_failure_recovery(benchmark, cifar_ensemble):
    _, predictions, y_true = cifar_ensemble

    def run():
        return model_failure_experiment(
            predictions,
            y_true,
            num_queries=NUM_QUERIES,
            degrade_start=DEGRADE_START,
            degrade_end=DEGRADE_END,
            random_state=0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    checkpoints = {"5k": 4999, "10k": 9999, "20k": NUM_QUERIES - 1}
    rows = []
    for name in sorted(result.cumulative_errors):
        curve = result.cumulative_errors[name]
        rows.append(
            {
                "series": name,
                **{f"cum_error@{label}": float(curve[idx]) for label, idx in checkpoints.items()},
            }
        )
    record_result(
        "fig8_model_failure",
        format_table(rows, title="Figure 8: cumulative error under model failure"),
    )

    finals = result.final_errors()
    degraded_model = min(
        (name for name in finals if name.startswith("model-")),
        key=lambda name: result.cumulative_errors[name][DEGRADE_START - 1],
    )
    # The adaptive policies end far below the degraded model's cumulative error.
    assert finals["Exp3"] < finals[degraded_model]
    assert finals["Exp4"] < finals[degraded_model]
    # And close to (or better than) the best static alternative.
    best_static = min(v for k, v in finals.items() if k.startswith("model-"))
    assert finals["Exp3"] <= best_static + 0.05
    assert finals["Exp4"] <= best_static + 0.05

    # Before the failure both policies converge toward the best model.
    pre_best = min(
        result.cumulative_errors[name][DEGRADE_START - 1]
        for name in finals
        if name.startswith("model-")
    )
    assert result.cumulative_errors["Exp4"][DEGRADE_START - 1] <= pre_best + 0.1


def test_fig8_ab_testing_baseline_cannot_recover(benchmark, cifar_ensemble):
    """Extension: classical A/B testing picks the pre-failure best and never adapts."""
    _, predictions, y_true = cifar_ensemble
    names = sorted(predictions)
    rng = np.random.default_rng(0)
    n_eval = y_true.shape[0]

    def run():
        ab = ABTestingSelection(names, min_samples_per_arm=200, random_state=0)
        errors = 0
        for t in range(6000):
            idx = int(rng.integers(0, n_eval))
            arm = ab.select()
            prediction = predictions[arm][idx]
            # After the experiment commits, degrade the chosen model severely.
            if ab.experiment_complete and t > 2000:
                prediction = (prediction + 1) % 10
            loss = 0.0 if prediction == y_true[idx] else 1.0
            errors += loss
            ab.observe(arm, loss)
        return errors / 6000

    ab_error = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "fig8_ab_testing_baseline",
        f"A/B testing baseline cumulative error with post-commit degradation: {ab_error:.3f}",
    )
    # The static A/B choice cannot react to the degradation, so its error is high.
    assert ab_error > 0.5
