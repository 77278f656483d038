"""Tests for ensemble voting and confidence helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import SelectionPolicyError
from repro.selection.ensemble import (
    majority_vote,
    normalize_weights,
    weighted_vote,
)


class TestMajorityVote:
    def test_simple_majority(self):
        label, agreement = majority_vote({"a": 1, "b": 1, "c": 0})
        assert label == 1
        assert agreement == pytest.approx(2 / 3)

    def test_unanimous(self):
        label, agreement = majority_vote({"a": "cat", "b": "cat"})
        assert label == "cat"
        assert agreement == 1.0

    def test_tie_broken_deterministically(self):
        label1, _ = majority_vote({"a": 0, "b": 1})
        label2, _ = majority_vote({"b": 1, "a": 0})
        assert label1 == label2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            majority_vote({})

    @pytest.mark.parametrize("output", [np.array([1, 0]), [1, 0]], ids=["ndarray", "list"])
    def test_unhashable_output_is_reported_with_its_model_and_type(self, output):
        with pytest.raises(SelectionPolicyError, match=rf"{type(output).__name__}.*'b:1'"):
            majority_vote({"a:1": 1, "b:1": output, "c:1": 1})


class TestWeightedVote:
    def test_weights_override_raw_counts(self):
        predictions = {"a": 0, "b": 1, "c": 1}
        weights = {"a": 10.0, "b": 0.1, "c": 0.1}
        label, agreement = weighted_vote(predictions, weights)
        assert label == 0
        assert agreement == pytest.approx(1 / 3)

    def test_missing_weight_treated_as_epsilon(self):
        predictions = {"a": 0, "b": 1}
        weights = {"a": 1.0}
        label, _ = weighted_vote(predictions, weights)
        assert label == 0

    def test_uniform_weights_match_majority(self):
        predictions = {"a": 2, "b": 2, "c": 3}
        assert weighted_vote(predictions, None) == majority_vote(predictions)


class TestNormalizeWeights:
    def test_sums_to_one(self):
        weights = normalize_weights({"a": 2.0, "b": 6.0})
        assert weights["a"] == pytest.approx(0.25)
        assert weights["b"] == pytest.approx(0.75)

    def test_all_zero_becomes_uniform(self):
        weights = normalize_weights({"a": 0.0, "b": 0.0})
        assert weights == {"a": 0.5, "b": 0.5}

    def test_negative_weights_clipped(self):
        weights = normalize_weights({"a": -1.0, "b": 1.0})
        assert weights["a"] == 0.0
        assert weights["b"] == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalize_weights({})


class TestVoteProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.integers(min_value=0, max_value=3),
            min_size=1,
            max_size=8,
        )
    )
    def test_winner_is_always_a_cast_vote_with_valid_agreement(self, predictions):
        label, agreement = majority_vote(predictions)
        assert label in predictions.values()
        assert 0.0 < agreement <= 1.0
        # The winner's count must be at least as large as any other label's.
        counts = {}
        for value in predictions.values():
            counts[value] = counts.get(value, 0) + 1
        assert counts[label] == max(counts.values())

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["m1", "m2", "m3", "m4", "m5"]),
            st.integers(min_value=0, max_value=2),
            min_size=1,
            max_size=5,
        ),
        st.dictionaries(
            st.sampled_from(["m1", "m2", "m3", "m4", "m5"]),
            st.floats(min_value=0.0, max_value=10.0),
            max_size=5,
        ),
    )
    def test_weighted_vote_agreement_is_unweighted_fraction(self, predictions, weights):
        label, agreement = weighted_vote(predictions, weights)
        expected = sum(1 for v in predictions.values() if v == label) / len(predictions)
        assert agreement == pytest.approx(expected)
