"""Tests for the batching queue and delayed batching."""

import asyncio
import time

import pytest

from helpers import run_async
from repro.batching.queue import BatchingQueue, PendingQuery


def make_item(value, deadline=None):
    loop = asyncio.get_event_loop()
    return PendingQuery(input=value, future=loop.create_future(), deadline=deadline)


class TestBatchingQueue:
    def test_get_batch_drains_up_to_max(self):
        async def scenario():
            queue = BatchingQueue()
            for i in range(10):
                await queue.put(make_item(i))
            batch = await queue.get_batch(max_batch_size=4)
            assert [item.input for item in batch] == [0, 1, 2, 3]
            assert queue.qsize() == 6

        run_async(scenario())

    def test_get_batch_returns_fewer_when_queue_short(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item("only"))
            batch = await queue.get_batch(max_batch_size=8)
            assert len(batch) == 1

        run_async(scenario())

    def test_get_batch_waits_for_first_item(self):
        async def scenario():
            queue = BatchingQueue()

            async def producer():
                await asyncio.sleep(0.05)
                await queue.put(make_item("late"))

            task = asyncio.get_event_loop().create_task(producer())
            batch = await queue.get_batch(max_batch_size=4)
            assert [item.input for item in batch] == ["late"]
            await task

        run_async(scenario())

    def test_invalid_max_batch_size(self):
        async def scenario():
            queue = BatchingQueue()
            with pytest.raises(ValueError):
                await queue.get_batch(max_batch_size=0)

        run_async(scenario())

    def test_closed_queue_rejects_puts_and_returns_empty_batches(self):
        async def scenario():
            queue = BatchingQueue()
            queue.close()
            with pytest.raises(RuntimeError):
                await queue.put(make_item(1))
            batch = await queue.get_batch(max_batch_size=2)
            assert batch == []

        run_async(scenario())

    def test_close_still_drains_existing_items(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item(1))
            queue.close()
            batch = await queue.get_batch(max_batch_size=4)
            assert len(batch) == 1

        run_async(scenario())


class TestDelayedBatching:
    def test_waits_for_more_queries_up_to_timeout(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item(0))

            async def producer():
                for i in range(1, 4):
                    await asyncio.sleep(0.01)
                    await queue.put(make_item(i))

            task = asyncio.get_event_loop().create_task(producer())
            batch = await queue.get_batch(max_batch_size=8, batch_wait_timeout_ms=100.0)
            assert len(batch) == 4
            await task

        run_async(scenario())

    def test_zero_timeout_dispatches_immediately(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item(0))
            start = time.perf_counter()
            batch = await queue.get_batch(max_batch_size=8, batch_wait_timeout_ms=0.0)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert len(batch) == 1
            assert elapsed_ms < 50.0

        run_async(scenario())

    def test_timeout_bounds_the_wait(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item(0))
            start = time.perf_counter()
            batch = await queue.get_batch(max_batch_size=8, batch_wait_timeout_ms=30.0)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert len(batch) == 1
            assert elapsed_ms < 200.0
            assert elapsed_ms >= 25.0

        run_async(scenario())

    def test_full_batch_does_not_wait(self):
        async def scenario():
            queue = BatchingQueue()
            for i in range(8):
                await queue.put(make_item(i))
            start = time.perf_counter()
            batch = await queue.get_batch(max_batch_size=4, batch_wait_timeout_ms=500.0)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert len(batch) == 4
            assert elapsed_ms < 100.0

        run_async(scenario())


class TestPendingQuery:
    def test_expired(self):
        async def scenario():
            item = make_item(1, deadline=time.monotonic() - 1.0)
            assert item.expired()
            fresh = make_item(2, deadline=time.monotonic() + 100.0)
            assert not fresh.expired()
            no_deadline = make_item(3)
            assert not no_deadline.expired()

        run_async(scenario())


class TestBoundedQueueClose:
    def test_put_raises_promptly_when_closed_while_waiting(self):
        """Regression: a producer parked on a full bounded queue must raise
        as soon as the queue closes, not wait for space that never frees."""

        async def scenario():
            queue = BatchingQueue(maxsize=1)
            await queue.put(make_item(0))

            async def blocked_put():
                await queue.put(make_item(1))

            task = asyncio.get_event_loop().create_task(blocked_put())
            await asyncio.sleep(0.01)  # let the producer park
            assert not task.done()
            queue.close()
            with pytest.raises(RuntimeError, match="closed"):
                await asyncio.wait_for(task, timeout=1.0)

        run_async(scenario())

    def test_put_raises_when_woken_by_space_on_closed_queue(self):
        async def scenario():
            queue = BatchingQueue(maxsize=1)
            await queue.put(make_item(0))

            async def blocked_put():
                await queue.put(make_item(1))

            task = asyncio.get_event_loop().create_task(blocked_put())
            await asyncio.sleep(0.01)
            # Close first, then free space: the woken producer must still
            # observe closed and raise instead of enqueueing.
            queue.close()
            queue.evict_expiring()
            with pytest.raises(RuntimeError, match="closed"):
                await asyncio.wait_for(task, timeout=1.0)
            assert queue.qsize() == 0

        run_async(scenario())


class TestEvictExpiring:
    def test_empty_queue_returns_none(self):
        async def scenario():
            queue = BatchingQueue()
            assert queue.evict_expiring() is None

        run_async(scenario())

    def test_prefers_earliest_deadline(self):
        async def scenario():
            queue = BatchingQueue()
            now = time.monotonic()
            await queue.put(make_item("late", deadline=now + 5.0))
            await queue.put(make_item("soon", deadline=now + 0.1))
            await queue.put(make_item("mid", deadline=now + 1.0))
            victim = queue.evict_expiring()
            assert victim.input == "soon"
            assert queue.qsize() == 2

        run_async(scenario())

    def test_falls_back_to_oldest_without_deadlines(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item("first"))
            await queue.put(make_item("second"))
            victim = queue.evict_expiring()
            assert victim.input == "first"

        run_async(scenario())

    def test_deadline_carrying_item_beats_older_deadline_free_one(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item("old-no-deadline"))
            await queue.put(make_item("deadline", deadline=time.monotonic() + 9.0))
            victim = queue.evict_expiring()
            assert victim.input == "deadline"

        run_async(scenario())

    def test_eviction_wakes_blocked_putter(self):
        async def scenario():
            queue = BatchingQueue(maxsize=1)
            await queue.put(make_item("victim", deadline=time.monotonic() + 1.0))

            async def blocked_put():
                await queue.put(make_item("replacement"))

            task = asyncio.get_event_loop().create_task(blocked_put())
            await asyncio.sleep(0.01)
            victim = queue.evict_expiring()
            assert victim.input == "victim"
            await asyncio.wait_for(task, timeout=1.0)
            assert queue.qsize() == 1

        run_async(scenario())


class TestSaturation:
    def test_unbounded_queue_reports_zero(self):
        async def scenario():
            queue = BatchingQueue()
            await queue.put(make_item(1))
            assert queue.saturation() == 0.0

        run_async(scenario())

    def test_bounded_queue_reports_fill_fraction(self):
        async def scenario():
            queue = BatchingQueue(maxsize=4)
            assert queue.saturation() == 0.0
            await queue.put(make_item(1))
            assert queue.saturation() == pytest.approx(0.25)
            for i in range(3):
                await queue.put(make_item(i))
            assert queue.saturation() == 1.0

        run_async(scenario())
