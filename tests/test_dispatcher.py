"""Tests for the per-replica batch dispatcher."""

import asyncio
import time

import numpy as np
import pytest

from helpers import run_async
from repro.batching.aimd import AIMDController
from repro.batching.controllers import FixedBatchSizeController
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.containers.replica import ContainerReplica
from repro.core.exceptions import ContainerError, PredictionTimeoutError
from repro.core.types import ModelId


def build_dispatcher(container, controller=None, batch_wait_timeout_ms=0.0, drop_expired=True):
    replica = ContainerReplica(ModelId("model"), 0, container)
    queue = BatchingQueue()
    controller = controller or FixedBatchSizeController(batch_size=8)
    dispatcher = ReplicaDispatcher(
        replica,
        queue,
        controller,
        batch_wait_timeout_ms=batch_wait_timeout_ms,
        drop_expired=drop_expired,
    )
    return replica, queue, dispatcher


def make_item(value, deadline=None, query_id=None):
    loop = asyncio.get_event_loop()
    return PendingQuery(
        input=value, future=loop.create_future(), deadline=deadline, query_id=query_id
    )


class TestDispatchBatch:
    def test_resolves_futures_with_outputs(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(output=4))
            await replica.start()
            items = [make_item(np.zeros(1)) for _ in range(3)]
            await dispatcher.dispatch_batch(items)
            assert [item.future.result() for item in items] == [4, 4, 4]
            assert dispatcher.batch_history[0].batch_size == 3
            await replica.stop()

        run_async(scenario())

    def test_batch_history_is_bounded(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(NoOpContainer())
            await replica.start()
            for _ in range(2999):
                await dispatcher.dispatch_batch([make_item(np.zeros(1))])
            await dispatcher.dispatch_batch([make_item(np.zeros(1)) for _ in range(2)])
            assert len(dispatcher.batch_history) == 1024
            assert dispatcher.batch_history[-1].batch_size == 2
            assert dispatcher.batch_history[0].batch_size == 1
            await replica.stop()

        run_async(scenario())

    def test_controller_observes_latency(self):
        async def scenario():
            controller = AIMDController(slo_ms=1000.0, initial_batch_size=1)
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
            with pytest.raises(PredictionTimeoutError):
                expired.future.result()
            assert live.future.result() == 1
            await replica.stop()

        run_async(scenario())

    def test_expired_queries_kept_when_drop_disabled(self):
        async def scenario():
            replica, queue, dispatcher = build_dispatcher(
                NoOpContainer(output=1), drop_expired=False
            )
            await replica.start()
            expired = make_item(np.zeros(1), deadline=time.monotonic() - 1.0)
            await dispatcher.dispatch_batch([expired])
            assert expired.future.result() == 1
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
            controller = FixedBatchSizeController(batch_size=4)
            replica, queue, dispatcher = build_dispatcher(NoOpContainer(), controller)
            await replica.start()
            dispatcher.start()
            items = [make_item(np.zeros(1)) for _ in range(16)]
            for item in items:
                await queue.put(item)
            await asyncio.gather(*[item.future for item in items])
            await dispatcher.stop()
            await replica.stop()
            assert all(stats.batch_size <= 4 for stats in dispatcher.batch_history)
            assert sum(stats.batch_size for stats in dispatcher.batch_history) == 16

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
                replica, queue, FixedBatchSizeController(batch_size=8), max_retries=2
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
                sick, queue, FixedBatchSizeController(batch_size=8), max_retries=2
            )
            healthy_dispatcher = ReplicaDispatcher(
                healthy, queue, FixedBatchSizeController(batch_size=8)
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
