"""Cross-cutting property-based tests on serving-path invariants."""

import asyncio

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import run_async
from repro.batching.aimd import AIMDController
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.cache.prediction_cache import PredictionCache
from repro.core.types import ModelId
from repro.selection.exp3 import Exp3Policy
from repro.selection.exp4 import Exp4Policy


class TestBatchingQueueProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=16),
    )
    def test_fifo_order_and_exact_coverage(self, values, max_batch):
        """Draining the queue preserves FIFO order and loses nothing."""

        async def scenario():
            queue = BatchingQueue()
            loop = asyncio.get_event_loop()
            for value in values:
                await queue.put(PendingQuery(input=value, future=loop.create_future()))
            drained = []
            while queue.qsize() > 0:
                batch = await queue.get_batch(max_batch_size=max_batch)
                assert 1 <= len(batch) <= max_batch
                drained.extend(item.input for item in batch)
            return drained

        drained = run_async(scenario())
        assert drained == values


class TestPredictionCacheProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.integers(0, 5)),
            min_size=1,
            max_size=150,
        ),
        st.integers(min_value=1, max_value=16),
        st.sampled_from(["clock", "lru"]),
    )
    def test_cache_never_returns_stale_or_foreign_values(self, ops, capacity, eviction):
        """Whatever the access pattern, a hit returns the value last stored."""
        cache = PredictionCache(capacity=capacity, eviction=eviction)
        reference = {}
        for item, model in ops:
            model_key = f"model-{model}:1"
            x = np.array([float(item)])
            cached = cache.fetch(model_key, x)
            if cached is not None:
                assert cached == reference[(model_key, item)]
            value = (item, model)
            cache.put(model_key, x, value)
            reference[(model_key, item)] = value
            assert len(cache) <= capacity


class TestControllerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=5.0, max_value=50.0),
    )
    def test_aimd_steady_state_respects_slo_capacity(self, per_item_ms, slo_ms):
        """After convergence the chosen batch never wildly exceeds capacity."""
        controller = AIMDController(slo_ms=slo_ms, initial_batch_size=1, additive_increase=2)
        capacity = slo_ms / per_item_ms
        for _ in range(400):
            batch = controller.current_batch_size()
            controller.observe(batch, per_item_ms * batch)
        # Steady state: at most one additive step above, or one backoff below,
        # the true capacity (never more than ~35% off, and never below 1).
        final = controller.current_batch_size()
        assert final >= 1
        assert final <= max(capacity * 1.35, capacity + 3)


class TestSelectionPolicyProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=200))
    def test_exp4_weights_are_always_a_valid_distribution(self, outcomes):
        policy = Exp4Policy(eta=0.5)
        models = [ModelId("a"), ModelId("b"), ModelId("c")]
        state = policy.init(models)
        for outcome in outcomes:
            predictions = {"a:1": outcome, "b:1": 1 - outcome, "c:1": outcome}
            state = policy.observe(state, None, 1, predictions)
            weights = policy.model_weights(state)
            assert abs(sum(weights.values()) - 1.0) < 1e-9
            assert all(0.0 <= w <= 1.0 for w in weights.values())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_exp3_selection_probabilities_normalized_for_any_seed(self, seed):
        policy = Exp3Policy(eta=0.3, exploration=0.1, seed=seed)
        state = policy.init([ModelId("a"), ModelId("b"), ModelId("c")])
        keys, probs = policy._probabilities(state)
        assert sorted(keys) == ["a:1", "b:1", "c:1"]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert all(p > 0 for p in probs)
