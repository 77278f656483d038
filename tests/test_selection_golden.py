"""Golden tests: the selection arithmetic against the code it replaced.

``ParentExp4`` and ``ParentExp3`` carry verbatim copies of ``combine`` /
``observe`` / ``select`` (and the helpers they called) from the commit before
the vote became one pass over raw weights and the weight update plain
``math`` arithmetic.  They are the reference; the policies in ``src/`` are
checked against them over generated states.

What "the same" means here, fixed before the rewrite:

* labels are hashable and equal to themselves (NaN is excluded: it is the
  one hashable value a dict cannot find again);
* ``combine`` names the same label whenever the reference's winning margin
  exceeds 1e-12 relative, and the smallest-``repr`` label when the raw
  totals are exactly equal; the confidence is the same number;
* ``observe`` yields weights within 1e-9 relative (``math.exp`` and
  ``np.exp`` may differ in the last place) and never touches its argument;
* ``Exp3Policy.select`` picks the same model sequence from a seed.

Streams of 1 000 feedbacks are compared end to end for Exp4 and step by step
for Exp3 (see the comment in its select test for why).
"""

from __future__ import annotations

import copy
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SelectionPolicyError
from repro.core.types import ModelId
from repro.selection.exp3 import Exp3Policy
from repro.selection.exp4 import Exp4Policy
from repro.selection.policy import SelectionState

# -- verbatim from the parent commit ------------------------------------------

_MIN_WEIGHT = 1e-6
_MAX_WEIGHT = 1e9


def weighted_vote(
    predictions: Dict[str, Any], weights: Optional[Dict[str, float]] = None
) -> Tuple[Any, float]:
    if not predictions:
        raise ValueError("cannot combine an empty prediction map")
    totals: Dict[Any, float] = defaultdict(float)
    counts: Dict[Any, int] = defaultdict(int)
    for model_key, label in predictions.items():
        weight = 1.0
        if weights is not None:
            weight = max(float(weights.get(model_key, 0.0)), 1e-9)
        totals[label] += weight
        counts[label] += 1
    winner = sorted(totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))[0][0]
    agreement = counts[winner] / len(predictions)
    return winner, agreement


def agreement_confidence(
    predictions: Dict[str, Any],
    final_label: Any,
    ensemble_size: Optional[int] = None,
) -> float:
    if ensemble_size is None:
        ensemble_size = len(predictions)
    if ensemble_size <= 0:
        return 0.0
    agreeing = sum(1 for label in predictions.values() if label == final_label)
    return agreeing / ensemble_size


def normalize_weights(weights: Dict[str, float]) -> Dict[str, float]:
    if not weights:
        raise ValueError("weights must be non-empty")
    total = sum(max(w, 0.0) for w in weights.values())
    if total <= 0:
        uniform = 1.0 / len(weights)
        return {key: uniform for key in weights}
    return {key: max(w, 0.0) / total for key, w in weights.items()}


class ParentExp4(Exp4Policy):
    def combine(
        self, state: SelectionState, x: Any, predictions: Dict[str, Any]
    ) -> Tuple[Any, float]:
        if not predictions:
            raise SelectionPolicyError("Exp4 combine called with no predictions")
        weights = normalize_weights(state["weights"])
        label, _ = weighted_vote(predictions, weights)
        ensemble_size = (
            len(state["weights"]) if self.count_missing_in_confidence else len(predictions)
        )
        confidence = agreement_confidence(predictions, label, ensemble_size)
        return label, confidence

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        for model_key in state["weights"]:
            if model_key not in predictions:
                # No prediction from this model for this query (straggler or
                # cache miss on the feedback path): leave its weight unchanged.
                continue
            loss = self.loss(feedback, predictions[model_key])
            updated = state["weights"][model_key] * float(np.exp(-self.eta * loss))
            state["weights"][model_key] = float(np.clip(updated, _MIN_WEIGHT, _MAX_WEIGHT))
        state["n_feedback"] = state.get("n_feedback", 0) + 1
        self._renormalize(state)
        return state

    @staticmethod
    def _renormalize(state: SelectionState) -> None:
        weights = state["weights"]
        mean = sum(weights.values()) / len(weights)
        if mean <= 0:
            return
        for key in weights:
            weights[key] = float(np.clip(weights[key] / mean, _MIN_WEIGHT, _MAX_WEIGHT))


class ParentExp3(Exp3Policy):
    def _probabilities(self, state: SelectionState) -> Tuple[List[str], np.ndarray]:
        weights = state["weights"]
        keys = list(weights.keys())
        values = np.array([weights[k] for k in keys], dtype=float)
        total = values.sum()
        if total <= 0:
            probs = np.full(len(keys), 1.0 / len(keys))
        else:
            probs = values / total
        if self.exploration > 0:
            probs = (1.0 - self.exploration) * probs + self.exploration / len(keys)
        probs = probs / probs.sum()
        return keys, probs

    def select(self, state: SelectionState, x: Any) -> List[str]:
        keys, probs = self._probabilities(state)
        choice = self._rng.choice(len(keys), p=probs)
        # The parent also bumped ``state["plays"][selected]`` here, a count
        # nothing read; it left with ``select_mutates_state``.
        return [keys[int(choice)]]

    def observe(
        self,
        state: SelectionState,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
    ) -> SelectionState:
        keys, probs = self._probabilities(state)
        prob_by_key = dict(zip(keys, probs))
        for model_key, prediction in predictions.items():
            if model_key not in state["weights"]:
                continue
            loss = self.loss(feedback, prediction)
            prob = max(prob_by_key.get(model_key, 1.0 / len(keys)), 1e-6)
            updated = state["weights"][model_key] * float(
                np.exp(-self.eta * loss / prob)
            )
            state["weights"][model_key] = float(
                np.clip(updated, _MIN_WEIGHT, _MAX_WEIGHT)
            )
        state["n_feedback"] = state.get("n_feedback", 0) + 1
        self._renormalize(state)
        return state

    @staticmethod
    def _renormalize(state: SelectionState) -> None:
        weights = state["weights"]
        mean = sum(weights.values()) / len(weights)
        if mean <= 0:
            return
        for key in weights:
            weights[key] = float(
                np.clip(weights[key] / mean, _MIN_WEIGHT, _MAX_WEIGHT)
            )


# -- generated states, prediction maps and streams -----------------------------

#: ``1`` and ``np.int64(1)`` are one label (equal, same hash); ``"1"`` is another.
LABELS = [0, 1, 2, np.int64(1), np.int64(2), "cat", "1"]
#: Weights no ``observe`` produces: non-positive ones and ones far outside the clip.
HAND_WRITTEN = [0.0, -0.0, -1.0, -1e300, 1e-300, 1e12, 1e300]

labels = st.sampled_from(LABELS)


def model_keys(n: int) -> List[str]:
    return [f"m{i}:1" for i in range(n)]


@st.composite
def prediction_maps(draw, keys: List[str], extra_key: bool = True):
    """A non-empty subset of the models (the rest are stragglers), in any order."""
    pool = keys + ["stranger:1"] if extra_key else keys
    answered = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    return {key: draw(labels) for key in answered}


@st.composite
def policy_states(draw, policy):
    """A state reached through ``init`` and reference ``observe`` steps (a
    seeded stream: drawing each step would take the test's time), with some
    weights then overwritten by hand."""
    keys = model_keys(draw(st.integers(min_value=2, max_value=8)))
    state = policy.init([ModelId.parse(key) for key in keys])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        predictions = {key: int(rng.integers(0, 3)) for key in keys if rng.random() < 0.8}
        state = policy.observe(state, None, 1, predictions)
    overwritten = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(HAND_WRITTEN)))
    state["weights"].update(overwritten)
    return state


def assert_same_weights(new: SelectionState, reference: SelectionState) -> None:
    assert list(new["weights"]) == list(reference["weights"])
    for key, expected in reference["weights"].items():
        assert new["weights"][key] == pytest.approx(expected, rel=1e-9, abs=0.0), key
    assert {k: v for k, v in new.items() if k != "weights"} == {
        k: v for k, v in reference.items() if k != "weights"
    }


def reference_totals(weights: Dict[str, float], predictions: Dict[str, Any]) -> Dict[Any, float]:
    """Per-label totals as the reference's vote saw them (normalised weights)."""
    normalised = normalize_weights(weights)
    totals: Dict[Any, float] = defaultdict(float)
    for key, label in predictions.items():
        totals[label] += max(float(normalised.get(key, 0.0)), 1e-9)
    return totals


def raw_totals(weights: Dict[str, float], predictions: Dict[str, Any]) -> Dict[Any, float]:
    """The same totals on the weights as stored: the floor scales with their sum."""
    positive = sum(max(w, 0.0) for w in weights.values())
    if positive <= 0:
        weights, positive = dict.fromkeys(weights, 1.0), len(weights)
    totals: Dict[Any, float] = defaultdict(float)
    for key, label in predictions.items():
        totals[label] += max(weights.get(key, 0.0), 1e-9 * positive)
    return totals


def assert_same_answer(answer, expected_answer, weights, reference_weights, predictions) -> None:
    """``combine``'s answer against the reference's, each from its own weights."""
    (label, confidence), (expected_label, expected_confidence) = answer, expected_answer
    totals = reference_totals(reference_weights, predictions)
    ranked = sorted(totals.values(), reverse=True)
    raw = raw_totals(weights, predictions)
    leaders = [candidate for candidate in raw if raw[candidate] == max(raw.values())]
    if len(leaders) > 1:
        smallest = min(leaders, key=repr)
        assert label == smallest and type(label) is type(smallest)
    if len(ranked) == 1 or ranked[0] - ranked[1] > 1e-12 * ranked[0]:
        assert label == expected_label and type(label) is type(expected_label)
    else:  # too close for two roundings to agree on: any of the leaders
        assert totals[label] >= ranked[0] * (1 - 1e-12)
    if label == expected_label:
        assert confidence == expected_confidence


class TestExp4AgainstTheParent:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_combine_names_the_same_label_with_the_same_confidence(self, data, count_missing):
        reference = ParentExp4(count_missing_in_confidence=count_missing)
        policy = Exp4Policy(count_missing_in_confidence=count_missing)
        state = data.draw(policy_states(reference))
        predictions = data.draw(prediction_maps(list(state["weights"])))
        before = copy.deepcopy(state)

        label, confidence = policy.combine(state, None, predictions)
        expected_label, expected_confidence = reference.combine(state, None, predictions)
        assert state == before

        assert_same_answer(
            (label, confidence), (expected_label, expected_confidence),
            state["weights"], state["weights"], predictions,
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_observe_yields_the_same_state_and_leaves_its_argument_alone(self, data):
        reference, policy = ParentExp4(eta=0.2), Exp4Policy(eta=0.2)
        state = data.draw(policy_states(reference))
        truth = data.draw(labels)
        predictions = data.draw(prediction_maps(list(state["weights"])))
        before = copy.deepcopy(state)

        updated = policy.observe(state, None, truth, predictions)
        assert state == before and updated is not state
        assert updated["weights"] is not state["weights"]
        assert_same_weights(updated, reference.observe(copy.deepcopy(state), None, truth, predictions))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=8))
    def test_thousand_step_stream_stays_together(self, seed, n_models):
        rng = np.random.default_rng(seed)
        keys = model_keys(n_models)
        accuracy = rng.uniform(0.2, 0.95, size=n_models)
        reference, policy = ParentExp4(eta=0.3), Exp4Policy(eta=0.3)
        state = policy.init([ModelId.parse(key) for key in keys])
        expected = copy.deepcopy(state)
        for _ in range(1000):
            truth = int(rng.integers(0, 3))
            predictions = {
                key: truth if rng.random() < accuracy[i] else (truth + 1) % 3
                for i, key in enumerate(keys)
                if rng.random() < 0.9  # one in ten is a straggler
            }
            if predictions:
                assert_same_answer(
                    policy.combine(state, None, predictions),
                    reference.combine(expected, None, predictions),
                    state["weights"], expected["weights"], predictions,
                )
            state = policy.observe(state, None, truth, predictions)
            expected = reference.observe(expected, None, truth, predictions)
        assert_same_weights(state, expected)
        assert state["n_feedback"] == 1000


class TestExp3AgainstTheParent:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([0.0, 0.05, 0.5]))
    def test_observe_yields_the_same_state_and_leaves_its_argument_alone(self, data, exploration):
        reference = ParentExp3(eta=0.1, exploration=exploration)
        policy = Exp3Policy(eta=0.1, exploration=exploration)
        state = data.draw(policy_states(reference))
        # Exp3 samples from the weights as stored: a negative one beside
        # positive ones is no distribution, in the reference or here.
        weights = state["weights"]
        weights.update({key: abs(w) for key, w in weights.items()})
        truth = data.draw(labels)
        predictions = data.draw(prediction_maps(list(weights)))
        before = copy.deepcopy(state)

        updated = policy.observe(state, None, truth, predictions)
        assert state == before and updated is not state
        assert updated["weights"] is not state["weights"]
        assert_same_weights(updated, reference.observe(copy.deepcopy(state), None, truth, predictions))

    @pytest.mark.parametrize("n_models, exploration", [(2, 0.05), (4, 0.0), (8, 0.05)])
    def test_ten_thousand_selects_match_the_parents_sequence(self, n_models, exploration):
        keys = model_keys(n_models)
        reference = ParentExp3(eta=0.1, exploration=exploration, seed=7)
        policy = Exp3Policy(eta=0.1, exploration=exploration, seed=7)
        state = policy.init([ModelId.parse(key) for key in keys])
        expected = copy.deepcopy(state)
        stream = np.random.default_rng(3)
        picks, expected_picks = [], []
        for step in range(10_000):
            picks += policy.select(state, None)
            expected_picks += reference.select(expected, None)
            if step % 10 == 9:  # feedback moves the distribution they sample from
                wrong = stream.random() < 0.3 + 0.5 * keys.index(picks[-1]) / n_models
                state = policy.observe(state, None, 1, {picks[-1]: int(not wrong)})
                expected = reference.observe(expected, None, 1, {picks[-1]: int(not wrong)})
                assert_same_weights(state, expected)
                # Exp3 divides the loss by the sampling probability, so each
                # step multiplies a last-place difference by up to eta / p:
                # left alone the two streams drift apart (3e-7 after these
                # 1 000 steps) and would one day disagree on a pick for that
                # reason alone.  Each step is compared, then taken over.
                expected["weights"] = dict(state["weights"])
        assert picks == expected_picks and len(picks) == 10_000
