"""Tests for the single-model, epsilon-greedy and UCB1 policies plus the factory."""

import numpy as np
import pytest

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.epsilon_greedy import EpsilonGreedyPolicy
from repro.selection.policy import SelectionPolicy, make_policy
from repro.selection.single import SingleModelPolicy
from repro.selection.ucb import UCB1Policy

MODELS = [ModelId("first"), ModelId("second"), ModelId("third")]


class TestSingleModelPolicy:
    def test_defaults_to_first_model(self):
        policy = SingleModelPolicy()
        state = policy.init(MODELS)
        assert policy.select(state, None) == ["first:1"]

    def test_pins_named_model(self):
        policy = SingleModelPolicy(model_name="second")
        state = policy.init(MODELS)
        assert policy.select(state, None) == ["second:1"]

    def test_unknown_pinned_model_raises(self):
        with pytest.raises(SelectionPolicyError):
            SingleModelPolicy(model_name="nope").init(MODELS)

    def test_combine_prefers_pinned_model(self):
        policy = SingleModelPolicy(model_name="second")
        state = policy.init(MODELS)
        output, confidence = policy.combine(state, None, {"second:1": 5, "first:1": 9})
        assert output == 5
        assert confidence == 1.0

    def test_combine_falls_back_when_pinned_missing(self):
        policy = SingleModelPolicy(model_name="second")
        state = policy.init(MODELS)
        output, confidence = policy.combine(state, None, {"first:1": 9})
        assert output == 9
        assert confidence == 0.0

    def test_observe_only_counts(self):
        policy = SingleModelPolicy()
        state = policy.init(MODELS)
        state = policy.observe(state, None, 1, {"first:1": 1})
        assert state["n_feedback"] == 1


class TestEpsilonGreedy:
    def test_zero_epsilon_exploits_best_arm(self):
        policy = EpsilonGreedyPolicy(epsilon=0.0, seed=0)
        state = policy.init(MODELS)
        # first is bad, second is good.
        for _ in range(20):
            state = policy.observe(state, None, 1, {"first:1": 0})
            state = policy.observe(state, None, 1, {"second:1": 1})
        assert policy.select(state, None) == ["second:1"]

    def test_epsilon_one_explores_every_arm(self):
        policy = EpsilonGreedyPolicy(epsilon=1.0, seed=0)
        state = policy.init(MODELS)
        chosen = {policy.select(state, None)[0] for _ in range(200)}
        assert chosen == {"first:1", "second:1", "third:1"}

    def test_invalid_epsilon(self):
        with pytest.raises(SelectionPolicyError):
            EpsilonGreedyPolicy(epsilon=1.5)

    def test_combine_passthrough(self):
        policy = EpsilonGreedyPolicy(seed=0)
        state = policy.init(MODELS)
        assert policy.combine(state, None, {"first:1": 3})[0] == 3


class TestUCB1:
    def test_plays_every_arm_once_first(self):
        policy = UCB1Policy()
        state = policy.init(MODELS)
        seen = []
        for _ in range(3):
            arm = policy.select(state, None)[0]
            seen.append(arm)
            state = policy.observe(state, None, 1, {arm: 1})
        assert sorted(seen) == ["first:1", "second:1", "third:1"]

    def test_converges_to_best_arm(self):
        rng = np.random.default_rng(0)
        policy = UCB1Policy(exploration_coefficient=0.5)
        state = policy.init(MODELS)
        accuracies = {"first:1": 0.3, "second:1": 0.9, "third:1": 0.5}
        plays = {key: 0 for key in accuracies}
        for _ in range(1500):
            arm = policy.select(state, None)[0]
            plays[arm] += 1
            correct = rng.random() < accuracies[arm]
            state = policy.observe(state, None, 1, {arm: 1 if correct else 0})
        assert plays["second:1"] > plays["first:1"]
        assert plays["second:1"] > plays["third:1"]

    def test_invalid_coefficient(self):
        with pytest.raises(SelectionPolicyError):
            UCB1Policy(exploration_coefficient=0)


class TestPolicyFactory:
    @pytest.mark.parametrize("name", ["exp3", "exp4", "single", "epsilon_greedy", "ucb"])
    def test_factory_builds_each_policy(self, name):
        policy = make_policy(name)
        assert isinstance(policy, SelectionPolicy)
        assert policy.name == name

    def test_unknown_policy_raises(self):
        with pytest.raises(SelectionPolicyError):
            make_policy("alphazero")

    def test_default_loss_is_zero_one(self):
        assert SelectionPolicy.loss(1, 1) == 0.0
        assert SelectionPolicy.loss(1, 2) == 1.0
        assert SelectionPolicy.loss(1, None) == 1.0
