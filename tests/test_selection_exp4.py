"""Tests for the Exp4 ensemble selection policy."""

import numpy as np
import pytest

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.exp4 import Exp4Policy

MODELS = [ModelId("a"), ModelId("b"), ModelId("c"), ModelId("d"), ModelId("e")]


class TestExp4Basics:
    def test_select_returns_all_models(self):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        assert sorted(policy.select(state, None)) == sorted(str(m) for m in MODELS)

    def test_combine_majority_vote_with_uniform_weights(self):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        predictions = {"a:1": 1, "b:1": 1, "c:1": 1, "d:1": 0, "e:1": 0}
        output, confidence = policy.combine(state, None, predictions)
        assert output == 1
        assert confidence == pytest.approx(3 / 5)

    def test_confidence_counts_missing_models(self):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        predictions = {"a:1": 1, "b:1": 1}  # three models missing (stragglers)
        output, confidence = policy.combine(state, None, predictions)
        assert output == 1
        assert confidence == pytest.approx(2 / 5)

    @pytest.mark.parametrize("agreeing", range(1, len(MODELS) + 1))
    def test_confidence_is_the_agreeing_share_of_the_whole_ensemble(self, agreeing):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        predictions = {str(model): 1 for model in MODELS[:agreeing]}
        output, confidence = policy.combine(state, None, predictions)
        assert output == 1
        assert confidence == pytest.approx(agreeing / len(MODELS))

    def test_combine_empty_raises(self):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        with pytest.raises(SelectionPolicyError):
            policy.combine(state, None, {})

    @pytest.mark.parametrize("output", [np.array([1, 0]), [1, 0]], ids=["ndarray", "list"])
    def test_combine_over_unhashable_output_names_the_model_and_the_type(self, output):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        with pytest.raises(SelectionPolicyError, match=rf"{type(output).__name__}.*'b:1'"):
            policy.combine(state, None, {"a:1": 1, "b:1": output})

    def test_invalid_eta(self):
        with pytest.raises(SelectionPolicyError):
            Exp4Policy(eta=0)


class TestExp4Learning:
    def test_down_weights_consistently_wrong_model(self):
        policy = Exp4Policy(eta=0.3)
        state = policy.init(MODELS)
        for _ in range(100):
            predictions = {str(m): 1 for m in MODELS}
            predictions["e:1"] = 0  # model e is always wrong
            state = policy.observe(state, None, 1, predictions)
        assert state["weights"]["e:1"] < min(
            state["weights"][k] for k in state["weights"] if k != "e:1"
        )

    def test_weighted_vote_overrides_majority_after_learning(self):
        """Once weights diverge, a confident minority of good models wins."""
        policy = Exp4Policy(eta=0.5)
        state = policy.init(MODELS)
        # Models a and b are always right; c, d, e always wrong.
        for _ in range(200):
            predictions = {"a:1": 1, "b:1": 1, "c:1": 0, "d:1": 0, "e:1": 0}
            state = policy.observe(state, None, 1, predictions)
        output, confidence = policy.combine(
            state, None, {"a:1": 1, "b:1": 1, "c:1": 0, "d:1": 0, "e:1": 0}
        )
        assert output == 1
        assert confidence == pytest.approx(2 / 5)

    def test_ensemble_beats_best_single_model_on_decorrelated_errors(self):
        """The Exp4 motivation: combining decorrelated models reduces error."""
        rng = np.random.default_rng(0)
        policy = Exp4Policy(eta=0.2)
        state = policy.init(MODELS)
        n = 3000
        accuracy = 0.7
        ensemble_errors = 0
        single_errors = 0
        for _ in range(n):
            truth = int(rng.integers(0, 2))
            predictions = {
                str(m): truth if rng.random() < accuracy else 1 - truth for m in MODELS
            }
            output, _ = policy.combine(state, None, predictions)
            ensemble_errors += int(output != truth)
            single_errors += int(predictions["a:1"] != truth)
            state = policy.observe(state, None, truth, predictions)
        assert ensemble_errors < single_errors

    def test_missing_predictions_leave_weights_unchanged(self):
        policy = Exp4Policy(eta=0.5)
        state = policy.init(MODELS)
        before = dict(state["weights"])
        state = policy.observe(state, None, 1, {"a:1": 1})  # only one model answered
        ratio_before = before["b:1"] / before["c:1"]
        ratio_after = state["weights"]["b:1"] / state["weights"]["c:1"]
        assert ratio_after == pytest.approx(ratio_before)

    def test_model_weights_normalized_view(self):
        policy = Exp4Policy()
        state = policy.init(MODELS)
        weights = policy.model_weights(state)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert all(w == pytest.approx(0.2) for w in weights.values())

    def test_weights_stay_finite_under_long_streams(self):
        policy = Exp4Policy(eta=1.0)
        state = policy.init(MODELS)
        for _ in range(2000):
            state = policy.observe(state, None, 1, {str(m): 0 for m in MODELS})
        assert all(np.isfinite(w) and w > 0 for w in state["weights"].values())
