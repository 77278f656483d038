"""Tests for the per-replica batch dispatcher."""

import asyncio
import time
import types

import numpy as np
import pytest

from helpers import run_async
from repro.batching import dispatcher as dispatcher_module
from repro.batching.controllers import AIMDController, FixedBatchSizeController
from repro.batching.deadline import DEADLINE_MISS
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.cache.prediction_cache import PredictionCache
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica
from repro.core import clock
from repro.core.config import BatchingConfig
from repro.core.exceptions import ContainerError
from repro.core.types import ModelId
from repro.observability.prometheus import render_prometheus, validate


def build_dispatcher(container, controller=None, batch_wait_timeout_ms=0.0):
    replica = ContainerReplica(ModelId("model"), 0, container)
    queue = BatchingQueue()
    controller = controller or FixedBatchSizeController(BatchingConfig(initial_batch_size=8))
    dispatcher = ReplicaDispatcher(
        replica, queue, controller, batch_wait_timeout_ms=batch_wait_timeout_ms
    )
    return replica, queue, dispatcher


def batch_sizes(dispatcher):
    """The size of every batch the dispatcher measured, oldest first."""
    name = f"model.{dispatcher.replica.model_id}.batch_size"
    return dispatcher.metrics.histogram(name).values()


def make_item(value, deadline=None, query_id=None):
    loop = asyncio.get_event_loop()
    return PendingQuery(
        value, loop.create_future(), clock.now(), deadline=deadline, query_id=query_id
    )


class TestDispatchBatch:
    def test_batch_sizes_render_on_powers_of_two(self):
        """64 queries in batches of 8: the batch-size histogram counts them on
        its own bounds, not on the latency buckets (where 6 and 10 share one)."""
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=4))
            await replica.start()
            for _ in range(8):
                await dispatcher.dispatch_batch([make_item(np.zeros(1)) for _ in range(8)])
            await replica.stop()
            return validate(render_prometheus({"demo": dispatcher.metrics}))

        families = run_async(scenario())
        samples = families["clipper_model_model:1_batch_size"]["samples"]
        buckets = {s["labels"]["le"]: s["value"] for s in samples if "le" in s["labels"]}
        assert list(buckets) == [*map(str, (2**k for k in range(13))), "+Inf"]
        assert buckets["4"] == 0 and buckets["8"] == 8 and buckets["+Inf"] == 8
        (count,) = [s["value"] for s in samples if s["name"].endswith("_count")]
        assert count == 8
        latency = families["clipper_model_model:1_batch_latency_ms"]["samples"]
        assert [s["labels"]["le"] for s in latency if "le" in s["labels"]][:2] == ["0.1", "0.25"]

    def test_resolves_futures_with_outputs(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=4))
            await replica.start()
            items = [make_item(np.zeros(1)) for _ in range(3)]
            await dispatcher.dispatch_batch(items)
            assert [item.future.result() for item in items] == [4, 4, 4]
            assert batch_sizes(dispatcher) == [3]
            await replica.stop()

        run_async(scenario())

    def test_an_answered_batch_fills_the_cache_once_with_owning_arrays(self):
        class Rows(ModelContainer):
            def predict_batch(self, inputs):
                return [np.full(3, i, dtype=np.float64) for i in range(len(inputs))]

        async def scenario():
            # tcp: the outputs come back as views into one response frame.
            replica = ContainerReplica(ModelId("model"), 0, Rows(), transport="tcp")
            cache = PredictionCache(capacity=16)
            dispatcher = ReplicaDispatcher(
                replica,
                BatchingQueue(),
                FixedBatchSizeController(BatchingConfig(initial_batch_size=8)),
                cache=cache,
            )
            await replica.start()
            try:
                loop = asyncio.get_running_loop()
                items = [
                    PendingQuery(np.zeros(1), loop.create_future(), clock.now(),
                                 input_hash=f"h{i}")
                    for i in range(3)
                ]
                await dispatcher.dispatch_batch(items)
                assert cache.stats.inserts == 3
                for i, item in enumerate(items):
                    output = item.future.result()
                    assert output.base is None and list(output) == [i] * 3
                    cached, _ = cache.fetch_by_hash(["model:1"], f"h{i}")
                    assert cached["model:1"] is output  # copied once, shared
            finally:
                await replica.stop()

        run_async(scenario())

    def test_controller_observes_latency(self):
        async def scenario():
            controller = AIMDController(BatchingConfig(initial_batch_size=1), slo_ms=1000.0)
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(), controller)
            await replica.start()
            await dispatcher.dispatch_batch([make_item(np.zeros(1))])
            assert controller.increases == 1
            await replica.stop()

        run_async(scenario())

    def test_container_error_fails_futures(self):
        class Exploding(ModelContainer):
            def predict_batch(self, inputs):
                raise RuntimeError("boom")

        async def scenario():
            replica, queue, dispatcher = build_dispatcher(Exploding())
            await replica.start()
            item = make_item(np.zeros(1))
            await dispatcher.dispatch_batch([item])
            with pytest.raises(ContainerError):
                item.future.result()
            await replica.stop()

        run_async(scenario())

    def test_expired_queries_are_dropped(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=1))
            await replica.start()
            expired = make_item(np.zeros(1), deadline=time.monotonic() - 1.0, query_id=7)
            live = make_item(np.zeros(1), deadline=time.monotonic() + 10.0)
            await dispatcher.dispatch_batch([expired, live])
            assert expired.future.result() is DEADLINE_MISS
            assert live.future.result() == 1
            assert batch_sizes(dispatcher) == [1]
            await replica.stop()

        run_async(scenario())

    def test_an_entry_expired_before_the_sweeper_ran_resolves_as_a_straggler(
        self, monkeypatch
    ):
        """The dispatcher's clock is a second ahead (a loop running late):
        the entry's deadline has not passed by the loop's timers, so no
        sweeper has expired it, but it has by the time its batch forms."""

        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=1))
            await replica.start()
            item = make_item(np.zeros(1), deadline=clock.now() + 0.5, query_id=3)
            monkeypatch.setattr(
                dispatcher_module, "clock", types.SimpleNamespace(now=lambda: clock.now() + 1.0)
            )
            await dispatcher.dispatch_batch([item])
            assert item.future.result() is DEADLINE_MISS
            assert batch_sizes(dispatcher) == []  # nothing was sent
            await replica.stop()

        run_async(scenario())


class TestDispatchLoop:
    def test_background_loop_serves_queued_queries(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=2))
            await replica.start()
            dispatcher.start()
            items = [make_item(np.zeros(1)) for _ in range(20)]
            for item in items:
                await queue.put(item)
            results = await asyncio.gather(*[item.future for item in items])
            assert results == [2] * 20
            await dispatcher.stop()
            await replica.stop()

        run_async(scenario())

    def test_batches_respect_controller_size(self):
        async def scenario():
            controller = FixedBatchSizeController(BatchingConfig(initial_batch_size=4))
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(), controller)
            await replica.start()
            dispatcher.start()
            items = [make_item(np.zeros(1)) for _ in range(16)]
            for item in items:
                await queue.put(item)
            await asyncio.gather(*[item.future for item in items])
            await dispatcher.stop()
            await replica.stop()
            assert all(size <= 4 for size in batch_sizes(dispatcher))
            assert sum(batch_sizes(dispatcher)) == 16

        run_async(scenario())

    def test_metrics_are_recorded(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer())
            await replica.start()
            dispatcher.start()
            item = make_item(np.zeros(1))
            await queue.put(item)
            await item.future
            await dispatcher.stop()
            await replica.stop()
            snapshot = dispatcher.metrics.snapshot()
            assert "model.model:1.batch_latency_ms" in snapshot.histograms

        run_async(scenario())


class TestFailureRequeue:
    def test_failed_batch_requeues_within_retry_budget(self):
        class Exploding(ModelContainer):
            def predict_batch(self, inputs):
                raise RuntimeError("boom")

        async def scenario():
            replica = ContainerReplica(ModelId("model"), 0, Exploding())
            queue = BatchingQueue()
            dispatcher = ReplicaDispatcher(
                replica,
                queue,
                FixedBatchSizeController(BatchingConfig(initial_batch_size=8)),
                max_retries=2,
            )
            await replica.start()
            item = make_item(np.zeros(1))
            await dispatcher.dispatch_batch([item])
            # First failure: the query went back onto the shared queue.
            assert not item.future.done()
            assert queue.qsize() == 1
            assert item.attempts == 1
            assert dispatcher.consecutive_failures == 1

            # Exhaust the retry budget: the failure surfaces.
            await dispatcher.dispatch_batch([queue._items.popleft()])
            await dispatcher.dispatch_batch([queue._items.popleft()])
            with pytest.raises(ContainerError):
                item.future.result()
            assert dispatcher.consecutive_failures == 3
            await replica.stop()

        run_async(scenario())

    def test_healthy_sibling_absorbs_requeued_queries(self):
        class Exploding(ModelContainer):
            def predict_batch(self, inputs):
                raise RuntimeError("boom")

        async def scenario():
            queue = BatchingQueue()
            sick = ContainerReplica(ModelId("model"), 0, Exploding())
            healthy = ContainerReplica(ModelId("model"), 1, NoOpContainer(output=6))
            sick_dispatcher = ReplicaDispatcher(
                sick,
                queue,
                FixedBatchSizeController(BatchingConfig(initial_batch_size=8)),
                max_retries=2,
            )
            healthy_dispatcher = ReplicaDispatcher(
                healthy, queue, FixedBatchSizeController(BatchingConfig(initial_batch_size=8))
            )
            await sick.start()
            await healthy.start()
            item = make_item(np.zeros(1))
            await sick_dispatcher.dispatch_batch([item])  # fails, requeues
            healthy_dispatcher.start()
            assert await asyncio.wait_for(item.future, timeout=2.0) == 6
            await healthy_dispatcher.stop()
            await sick.stop()
            await healthy.stop()

        run_async(scenario())

    def test_success_resets_consecutive_failures(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=1))
            dispatcher.consecutive_failures = 3
            await replica.start()
            await dispatcher.dispatch_batch([make_item(np.zeros(1))])
            assert dispatcher.consecutive_failures == 0
            await replica.stop()

        run_async(scenario())
