"""The written contract of the Exp3 / Exp4 arithmetic (paper §5.1, §5.2).

* ``combine`` (Exp4) follows ``weighted_vote``'s floor rule: a model whose
  weight is missing, non-positive or under 1e-9 of the positive total counts
  as 1e-9 of it, and when no weight is positive every model counts the same.
  The label with the heaviest total wins and a tie goes to the smallest
  ``repr``; the label returned is the object the first model to cast it
  returned.  The answer does not change when every weight is scaled by the
  same factor, and without weights every answer counts one.  The confidence
  is the share of the ensemble (the deployed models) that cast the winning
  label.
* ``observe`` is pure: the state handed in stays equal to a copy taken
  before, and a new state with a new weights map comes back.  For Exp4 over
  two models, after a stream in which one is right and the other wrong *k*
  times more often than the reverse, the ratio of their weights is
  ``exp(eta * k)`` and the weights keep mean 1, up to the clip
  ``[1e-6, 1e9]``; past the clip the loser stays at its floor.  For one Exp3
  step that holds one known model's answer (bandit feedback: the drawn arm),
  that model's penalty is ``eta * loss / p``, where ``p`` is its sampling
  probability ``(1 - γ) · w / Σw + γ / n``; a step that holds several (full
  information: ``Clipper.feedback`` hands over every serving model's answer)
  penalises each by ``eta * loss``.
* ``select`` (Exp3) draws the pinned pick sequence from a seed.

Labels are hashable and equal to themselves: ``1`` and ``np.int64(1)`` are
one label, ``"1"`` another; NaN is excluded (a dict cannot find it again).
"""

from __future__ import annotations

import copy
import hashlib
import math
from typing import Any, Dict, List

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import ModelId
from repro.selection.ensemble import weighted_vote
from repro.selection.exp3 import Exp3Policy
from repro.selection.exp4 import Exp4Policy

LABELS = [0, 1, 2, np.int64(1), np.int64(2), "cat", "1"]
#: Weights no ``observe`` produces: non-positive ones and ones far outside the clip.
NON_POSITIVE = [0.0, -0.0, -1.0, -1e300]
HAND_WRITTEN = NON_POSITIVE + [1e-300, 1e12, 1e300]

labels = st.sampled_from(LABELS)


def model_keys(n: int) -> List[str]:
    return [f"m{i}:1" for i in range(n)]


@st.composite
def states(draw) -> Dict[str, Any]:
    """An Exp4 state over 2-8 models, some weights outside what ``observe``
    makes, and one time in four none of them positive."""
    keys = model_keys(draw(st.integers(min_value=2, max_value=8)))
    weight = draw(st.sampled_from(
        [st.floats(min_value=1e-6, max_value=1e9) | st.sampled_from(HAND_WRITTEN)] * 3
        + [st.sampled_from(NON_POSITIVE)]
    ))
    return {
        "policy": "exp4",
        "weights": {key: draw(weight) for key in keys},
        "n_feedback": draw(st.integers(min_value=0, max_value=9)),
    }


@st.composite
def prediction_maps(draw, keys: List[str]):
    """A non-empty subset of the models (the rest straggled), in any order,
    sometimes with an answer from a model the state does not know."""
    answered = draw(st.lists(st.sampled_from(keys + ["stranger:1"]), min_size=1, unique=True))
    return {key: draw(labels) for key in answered}


def label_totals(weights: Dict[str, float], predictions: Dict[str, Any]) -> Dict[Any, float]:
    """Each label's weight under the floor rule, added in the order of the answers."""
    positive = sum(weight for weight in weights.values() if weight > 0)
    if positive <= 0:
        weights, positive = dict.fromkeys(weights, 1.0), len(weights)
    floor = 1e-9 * positive
    totals: Dict[Any, float] = {}
    for key, label in predictions.items():
        totals[label] = totals.get(label, 0.0) + max(weights.get(key, floor), floor)
    return totals


def assert_vote(answer, weights, predictions, size) -> None:
    """The heaviest label, ties to the smallest ``repr``, with the agreeing share."""
    label, confidence = answer
    totals = label_totals(weights, predictions)
    leaders = [each for each, total in totals.items() if total == max(totals.values())]
    assert label is min(leaders, key=repr)
    assert confidence == sum(each == label for each in predictions.values()) / size


class TestExp4Combine:
    @given(st.data())
    def test_heaviest_label_wins_ties_to_smallest_repr_confidence_is_agreeing_share(
        self, data
    ):
        policy = Exp4Policy()
        state = data.draw(states())
        predictions = data.draw(prediction_maps(list(state["weights"])))
        before = copy.deepcopy(state)

        size = len(state["weights"])
        assert_vote(policy.combine(state, None, predictions), state["weights"], predictions, size)
        assert state == before
        # Without weights, every answer counts one.
        assert_vote(weighted_vote(predictions), dict.fromkeys(predictions, 1.0), predictions,
                    len(predictions))

    @given(st.data(), st.integers(min_value=-20, max_value=20))
    def test_scaling_every_weight_by_one_factor_changes_nothing(self, data, exponent):
        policy = Exp4Policy()
        state = data.draw(states())
        predictions = data.draw(prediction_maps(list(state["weights"])))
        # A power of two scales every weight and sum exactly.
        scaled = {**state, "weights": {
            key: weight * 2.0 ** exponent for key, weight in state["weights"].items()
        }}
        label, confidence = policy.combine(state, None, predictions)
        scaled_label, scaled_confidence = policy.combine(scaled, None, predictions)
        assert scaled_label is label and scaled_confidence == confidence

    def test_by_hand(self):
        state = {"weights": {"a:1": 3.0, "b:1": 1.0, "c:1": 2.0, "d:1": -5.0}}
        policy = Exp4Policy()
        # 3 against 1 + 2: a tie, which "cat" wins over "dog" by its repr.
        assert policy.combine(state, None, {"a:1": "dog", "b:1": "cat", "c:1": "cat"}) == (
            "cat", 0.5)
        # A non-positive weight counts as 1e-9 of the positive total; with
        # none positive, every model counts the same.
        assert policy.combine(state, None, {"d:1": 1, "b:1": 0})[0] == 0
        none_positive = {"weights": {"a:1": 0.0, "b:1": -1.0, "c:1": -0.0}}
        assert policy.combine(none_positive, None, {"a:1": "x", "b:1": "y", "c:1": "y"}) == (
            "y", 2 / 3)
        answer = policy.combine(state, None, {"a:1": np.int64(1), "b:1": 1, "c:1": 2})
        assert answer == (1, 2 / 4) and type(answer[0]) is np.int64


TRUTH = 1
#: Exp4 feedback steps over models a and b: the answers, and how much the
#: step moves log(w_a / w_b) in units of eta.
STEPS = {
    "a right, b wrong": ({"a:1": 1, "b:1": 0}, 1),
    "a wrong, b right": ({"a:1": 0, "b:1": 1}, -1),
    "both right": ({"a:1": 1, "b:1": 1}, 0),
    "both wrong": ({"a:1": 0, "b:1": 0}, 0),
    "a alone, right": ({"a:1": 1}, 0),
    "a alone, wrong": ({"a:1": 0}, -1),
    "b alone, wrong": ({"b:1": 0}, 1),
}


def assert_pure_step(policy, state, predictions, truth=TRUTH):
    before = copy.deepcopy(state)
    updated = policy.observe(state, None, truth, predictions)
    assert state == before and updated is not state
    assert updated["weights"] is not state["weights"]
    assert updated["n_feedback"] == state["n_feedback"] + 1
    return updated


class TestExp4Observe:
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.lists(st.sampled_from(sorted(STEPS)), max_size=60),
    )
    def test_weight_ratio_is_exp_eta_times_the_net_score(self, eta, stream):
        policy = Exp4Policy(eta=eta)
        state = policy.init([ModelId("a"), ModelId("b")])
        score = 0
        for step in stream:
            predictions, move = STEPS[step]
            state = assert_pure_step(policy, state, predictions)
            score += move
            if abs(score) * eta > 11:  # exp(11) ~ 6e4: stay well inside the clip
                return
            a, b = state["weights"]["a:1"], state["weights"]["b:1"]
            assert a / b == pytest.approx(math.exp(eta * score), rel=1e-9)
            assert (a + b) / 2 == pytest.approx(1.0, rel=1e-12)

    def test_past_the_clip_the_loser_stays_at_its_floor(self):
        policy = Exp4Policy(eta=0.5)
        state = policy.init([ModelId("a"), ModelId("b")])
        for _ in range(100):
            state = policy.observe(state, None, TRUTH, STEPS["a right, b wrong"][0])
            assert state["weights"]["b:1"] >= 1e-6
        assert state["weights"]["b:1"] == pytest.approx(1e-6, rel=1e-5)
        assert state["weights"]["a:1"] == pytest.approx(2.0, rel=1e-5)

    @given(st.data())
    def test_observe_on_any_state_leaves_it_alone(self, data):
        policy = Exp4Policy(eta=0.2)
        state = data.draw(states())
        assert_pure_step(
            policy, state, data.draw(prediction_maps(list(state["weights"]))), data.draw(labels)
        )


class TestExp3:
    @given(
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=6),
        st.sampled_from([0.0, 0.05, 0.5]),
        st.data(),
    )
    def test_one_step_penalises_loss_over_sampling_probability(self, weights, exploration, data):
        eta = 0.1
        policy = Exp3Policy(eta=eta, exploration=exploration)
        keys = model_keys(len(weights))
        state = {"policy": "exp3", "weights": dict(zip(keys, weights)), "n_feedback": 0}
        truth = data.draw(labels)
        predictions = data.draw(prediction_maps(keys))
        updated = assert_pure_step(policy, state, predictions, truth)

        total, n = sum(weights), len(weights)
        bandit = sum(key in state["weights"] for key in predictions) == 1
        log_weight = {}
        for key, weight in state["weights"].items():
            p = (1 - exploration) * weight / total + exploration / n if bandit else 1.0
            loss = 0.0 if predictions.get(key, truth) == truth else 1.0
            log_weight[key] = math.log(weight) - eta * loss / p
        first = keys[0]
        for key in keys[1:]:
            ratio = updated["weights"][key] / updated["weights"][first]
            assert ratio == pytest.approx(math.exp(log_weight[key] - log_weight[first]), rel=1e-9)
        assert sum(updated["weights"].values()) / n == pytest.approx(1.0, rel=1e-12)

    #: The first 60 picks (model index per pick) and a digest of all 10 000.
    PINNED = {
        (2, 0.05): ("111001011000001111110010010111100010001001111101110100001011",
                    "a76e4586805ac855"),
        (4, 0.0): ("233013033111012233230020021322200020103003232202231201102132",
                   "e811cb859805004e"),
        (8, 0.05): ("576126066322134476571140043644310151206116464504462402205274",
                    "a77dba26a65b0f12"),
    }

    @pytest.mark.parametrize("n_models, exploration", sorted(PINNED))
    def test_seeded_picks_are_the_pinned_sequence(self, n_models, exploration):
        keys = model_keys(n_models)
        policy = Exp3Policy(eta=0.1, exploration=exploration, seed=7)
        state = policy.init([ModelId.parse(key) for key in keys])
        stream = np.random.default_rng(3)
        picks = []
        for step in range(10_000):
            picks += policy.select(state, None)
            if step % 10 == 9:  # feedback moves the distribution they sample from
                wrong = stream.random() < 0.3 + 0.5 * keys.index(picks[-1]) / n_models
                state = policy.observe(state, None, 1, {picks[-1]: int(not wrong)})
        sequence = "".join(str(keys.index(pick)) for pick in picks)
        prefix, digest = self.PINNED[n_models, exploration]
        assert sequence[:60] == prefix
        assert hashlib.sha256(sequence.encode()).hexdigest()[:16] == digest
