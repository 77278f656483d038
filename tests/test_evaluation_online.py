"""Tests for the selection experiments of Figures 7, 8 and 10, served through Clipper."""

import numpy as np
import pytest

from paperkit.reporting import format_table
from paperkit.served_selection import (
    EnsembleAccuracyResult,
    ensemble_accuracy_experiment,
    model_failure_experiment,
    personalization_experiment,
)


@pytest.fixture(scope="module")
def synthetic_predictions():
    """Five synthetic models of varying accuracy on a 500-query eval set."""
    rng = np.random.default_rng(0)
    n = 500
    n_classes = 10
    y_true = rng.integers(0, n_classes, size=n)
    accuracies = {
        "model-1": 0.70,
        "model-2": 0.75,
        "model-3": 0.80,
        "model-4": 0.85,
        "model-5": 0.90,
    }
    predictions = {}
    for name, accuracy in accuracies.items():
        correct = rng.random(n) < accuracy
        wrong = (y_true + rng.integers(1, n_classes, size=n)) % n_classes
        predictions[name] = np.where(correct, y_true, wrong)
    return predictions, y_true


class TestEnsembleAccuracy:
    def test_ensemble_beats_best_single_model(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        result = ensemble_accuracy_experiment(predictions, y_true, agreement_threshold=4)
        assert result.ensemble_error < result.single_model_error

    def test_confident_subset_has_lower_error(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        result = ensemble_accuracy_experiment(predictions, y_true, agreement_threshold=5)
        assert result.confident_error < result.ensemble_error
        assert result.unsure_error > result.confident_error
        assert 0.0 < result.confident_fraction < 1.0

    def test_per_model_errors_reported(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        result = ensemble_accuracy_experiment(predictions, y_true)
        assert set(result.per_model_errors) == set(predictions)
        assert result.single_model_error == pytest.approx(min(result.per_model_errors.values()))

    def test_as_row_structure(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        row = ensemble_accuracy_experiment(predictions, y_true, agreement_threshold=4).as_row()
        assert "ensemble" in row and "single_model" in row

    def test_rows_of_two_thresholds_render_their_confident_error(self):
        """Fig. 7 prints its 4-agree and 5-agree rows under one header, which
        the first row's keys define: each row must fill the confident column."""
        rows = [
            EnsembleAccuracyResult("cifar-like", 0.15, 0.12, confident, 0.2, 0.5, threshold)
            for threshold, confident in ((4, 0.0955), (5, 0.0995))
        ]
        table = format_table([result.as_row() for result in rows]).splitlines()
        header, body = table[0].split(), table[2:]
        column = header.index("confident")
        assert [line.split()[column] for line in body] == ["0.0955", "0.0995"]
        assert [line.split()[header.index("agreement")] for line in body] == [
            "4-agree", "5-agree",
        ]

    def test_validation(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        with pytest.raises(ValueError):
            ensemble_accuracy_experiment({}, y_true)
        with pytest.raises(ValueError):
            ensemble_accuracy_experiment(predictions, y_true, agreement_threshold=99)


class TestModelFailure:
    def test_policies_track_best_model_then_recover(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        result = model_failure_experiment(
            predictions,
            y_true,
            num_queries=6000,
            degrade_start=2000,
            degrade_end=4000,
            random_state=0,
        )
        finals = result.final_errors()
        # The degraded best model ends up with a worse cumulative error than
        # either adaptive policy.
        assert finals["Exp3"] < finals["model-5"]
        assert finals["Exp4"] < finals["model-5"]
        # The policies end close to (or better than) the best non-degraded model.
        best_static = min(finals[f"model-{i}"] for i in range(1, 5))
        assert finals["Exp3"] <= best_static + 0.05
        assert finals["Exp4"] <= best_static + 0.05

    def test_error_spikes_inside_degradation_window(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        result = model_failure_experiment(
            predictions, y_true, num_queries=3000, degrade_start=1000, degrade_end=3000,
            degraded_model="model-5", random_state=0,
        )
        curve = result.cumulative_errors["model-5"]
        assert curve[2999] > curve[999]

    def test_curve_lengths_match_num_queries(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        result = model_failure_experiment(
            predictions, y_true, num_queries=500, degrade_start=100, degrade_end=200, random_state=0
        )
        assert all(len(curve) == 500 for curve in result.cumulative_errors.values())

    def test_validation(self, synthetic_predictions):
        predictions, y_true = synthetic_predictions
        with pytest.raises(ValueError):
            model_failure_experiment(predictions, y_true, num_queries=100, degrade_start=90, degrade_end=80)
        with pytest.raises(ValueError):
            model_failure_experiment({}, y_true)


class TestPersonalization:
    def _build_streams(self, n_users=12, n_steps=8, seed=0):
        """Two dialects; each dialect's model is right for its own users."""
        rng = np.random.default_rng(seed)
        model_names = ["dialect-0", "dialect-1", "no-dialect-global"]
        user_streams, dialect_of_user = {}, {}
        for u in range(n_users):
            dialect = u % 2
            user = f"user-{u}"
            dialect_of_user[user] = dialect
            stream = []
            for step in range(n_steps):
                truth = int(rng.integers(0, 5))
                per_model = {}
                for name in model_names:
                    if name == f"dialect-{dialect}":
                        accuracy = 0.85
                    elif name == "no-dialect-global":
                        accuracy = 0.7
                    else:
                        accuracy = 0.4
                    correct = rng.random() < accuracy
                    per_model[name] = truth if correct else (truth + 1) % 5
                stream.append((step, per_model, truth))
            user_streams[user] = stream
        return user_streams, dialect_of_user, model_names

    def test_policy_beats_global_model_after_feedback(self):
        user_streams, dialect_of_user, _ = self._build_streams(n_users=30, n_steps=9)
        result = personalization_experiment(
            user_streams,
            dialect_of_user,
            dialect_model_name={0: "dialect-0", 1: "dialect-1"},
            global_model_name="no-dialect-global",
            max_feedback=8,
        )
        # After several rounds of feedback the contextual policy should be at
        # least as good as the dialect-oblivious model (Figure 10's gap).
        assert np.mean(result.clipper_policy_error[4:]) <= np.mean(result.no_dialect_error[4:]) + 0.05
        assert len(result.feedback_counts) == 9

    def test_static_dialect_beats_global(self):
        user_streams, dialect_of_user, _ = self._build_streams(n_users=30, n_steps=6, seed=1)
        result = personalization_experiment(
            user_streams,
            dialect_of_user,
            dialect_model_name={0: "dialect-0", 1: "dialect-1"},
            global_model_name="no-dialect-global",
            max_feedback=5,
        )
        assert np.mean(result.static_dialect_error) < np.mean(result.no_dialect_error)

    def test_rows_rendering(self):
        user_streams, dialect_of_user, _ = self._build_streams(n_users=4, n_steps=3)
        result = personalization_experiment(
            user_streams,
            dialect_of_user,
            dialect_model_name={0: "dialect-0", 1: "dialect-1"},
            global_model_name="no-dialect-global",
            max_feedback=2,
        )
        rows = result.as_rows()
        assert rows[0]["feedback"] == 0
        assert {"static_dialect", "no_dialect", "clipper_policy"} <= set(rows[0])

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            personalization_experiment({}, {}, {}, "global")
