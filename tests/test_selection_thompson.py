"""Tests for the Thompson-sampling selection policy (extension)."""

import numpy as np
import pytest

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.policy import make_policy
from repro.selection.thompson import ThompsonSamplingPolicy

MODELS = [ModelId("good"), ModelId("bad")]


def posterior_means(policy, state):
    """Posterior mean success probability per model, read off the stored tallies."""
    means = {}
    for key in state["successes"]:
        alpha = policy.prior_successes + state["successes"][key]
        beta = policy.prior_failures + state["failures"][key]
        means[key] = alpha / (alpha + beta)
    return means


class TestThompsonBasics:
    def test_init_state(self):
        policy = ThompsonSamplingPolicy(seed=0)
        state = policy.init(MODELS)
        assert set(state["successes"]) == {"good:1", "bad:1"}
        assert all(v == 0.0 for v in state["successes"].values())
        assert all(v == 0.0 for v in state["failures"].values())

    def test_select_returns_one_deployed_model(self):
        policy = ThompsonSamplingPolicy(seed=0)
        state = policy.init(MODELS)
        selected = policy.select(state, None)
        assert len(selected) == 1
        assert selected[0] in state["successes"]

    def test_combine_passthrough(self):
        policy = ThompsonSamplingPolicy(seed=0)
        state = policy.init(MODELS)
        assert policy.combine(state, None, {"good:1": 7}) == (7, 1.0)
        with pytest.raises(SelectionPolicyError):
            policy.combine(state, None, {})

    def test_validation(self):
        with pytest.raises(SelectionPolicyError):
            ThompsonSamplingPolicy(prior_successes=0)
        with pytest.raises(SelectionPolicyError):
            ThompsonSamplingPolicy(discount=0)
        with pytest.raises(SelectionPolicyError):
            ThompsonSamplingPolicy(discount=1.5)

    def test_factory_integration(self):
        policy = make_policy("thompson", discount=0.99)
        assert isinstance(policy, ThompsonSamplingPolicy)
        assert policy.discount == 0.99


class TestThompsonLearning:
    def _replay(self, policy, accuracies, n_steps, rng):
        state = policy.init(list(accuracies.keys()))
        plays = {str(m): 0 for m in accuracies}
        for _ in range(n_steps):
            arm = policy.select(state, None)[0]
            plays[arm] += 1
            accuracy = accuracies[ModelId(arm.split(":", 1)[0])]
            correct = rng.random() < accuracy
            state = policy.observe(state, None, 1, {arm: 1 if correct else 0})
        return state, plays

    def test_converges_to_best_model(self):
        policy = ThompsonSamplingPolicy(seed=1)
        rng = np.random.default_rng(1)
        accuracies = {ModelId("good"): 0.9, ModelId("bad"): 0.5}
        state, plays = self._replay(policy, accuracies, 1500, rng)
        assert plays["good:1"] > 3 * plays["bad:1"]
        means = posterior_means(policy, state)
        assert means["good:1"] > means["bad:1"]

    def test_posterior_means_track_observed_accuracy(self):
        policy = ThompsonSamplingPolicy(seed=0)
        state = policy.init(MODELS)
        for _ in range(200):
            state = policy.observe(state, None, 1, {"good:1": 1})
            state = policy.observe(state, None, 1, {"bad:1": 0})
        means = posterior_means(policy, state)
        assert means["good:1"] > 0.95
        assert means["bad:1"] < 0.05

    def test_discounting_recovers_from_degradation(self):
        """With forgetting enabled the policy shifts away from a degraded model."""
        policy = ThompsonSamplingPolicy(discount=0.98, seed=2)
        rng = np.random.default_rng(2)
        state = policy.init(MODELS)
        # Phase 1: "good" really is good.
        for _ in range(500):
            arm = policy.select(state, None)[0]
            accuracy = 0.95 if arm == "good:1" else 0.6
            state = policy.observe(state, None, 1, {arm: 1 if rng.random() < accuracy else 0})
        # Phase 2: "good" fails badly.
        for _ in range(800):
            arm = policy.select(state, None)[0]
            accuracy = 0.05 if arm == "good:1" else 0.6
            state = policy.observe(state, None, 1, {arm: 1 if rng.random() < accuracy else 0})
        means = posterior_means(policy, state)
        assert means["bad:1"] > means["good:1"]

    def test_counts_remain_finite_and_nonnegative(self):
        policy = ThompsonSamplingPolicy(discount=0.9, seed=0)
        state = policy.init(MODELS)
        for _ in range(1000):
            state = policy.observe(state, None, 1, {"good:1": 0, "bad:1": 1})
        for table in (state["successes"], state["failures"]):
            for value in table.values():
                assert np.isfinite(value)
                assert value >= 0.0
