"""Per-model batching queues.

Queries dispatched to a model are appended to that model's batching queue;
each replica's dispatcher repeatedly drains up to its controller's current
maximum batch size.  The queue supports the delayed-batching behaviour of
§4.3.2: when fewer queries than the target batch are waiting, the dispatcher
may wait up to ``batch_wait_timeout_ms`` for more to arrive before sending a
smaller batch.

Event-driven design
-------------------
The queue is a plain deque plus waiter futures — no poll timers.  A consumer
blocked in :meth:`BatchingQueue.get_batch` parks a future on the queue;
:meth:`put` wakes exactly one waiter per enqueued item and :meth:`close`
wakes everyone, so dispatchers react to new work and to shutdown immediately
instead of on the next 50 ms poll tick.  During delayed batching a single
``loop.call_later`` deadline timer bounds the whole wait — the previous
implementation allocated one ``asyncio.wait_for`` timer per additional item.

:meth:`get_batch` may return an empty batch when the queue is closed *or*
when the consumer was woken without work being available for it (another
consumer drained the item first, or :meth:`wake_all` was called for a prompt
dispatcher shutdown); callers treat an empty batch as "re-check state and
wait again".
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional


@dataclass(slots=True)
class PendingQuery:
    """One query waiting in a batching queue.

    ``input_hash`` carries the query's content hash, computed once by the
    serving engine, so any batch-layer consumer that needs the cache key
    (e.g. deduplicating identical in-flight queries) can read it instead of
    re-hashing the input.  The engine's own cache inserts and straggler
    callbacks reuse the same precomputed digest on the ``Clipper`` side.
    """

    input: Any
    future: asyncio.Future
    enqueue_time: float = field(default_factory=time.monotonic)
    deadline: Optional[float] = None
    query_id: Optional[int] = None
    input_hash: Optional[str] = None
    #: Number of times this query has been re-enqueued after a replica
    #: failure; the dispatcher fails the future once its retry budget is
    #: exhausted.
    attempts: int = 0
    #: The query's TraceContext when it is traced (sampled or shadow); the
    #: dispatcher stamps queue-wait/RPC/eval spans and retry flags on it.
    trace: Optional[Any] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the query's deadline has already passed."""
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline


class BatchingQueue:
    """FIFO of pending queries with event-driven async batch draining."""

    def __init__(self, name: str = "queue", maxsize: int = 0) -> None:
        self.name = name
        self.maxsize = maxsize
        self._items: Deque[PendingQuery] = deque()
        self._getters: Deque[asyncio.Future] = deque()
        self._putters: Deque[asyncio.Future] = deque()
        self._empty_waiters: Deque[asyncio.Future] = deque()
        self._closed = False
        # Bumped by wake_all(); a delayed-batching wait gives up (returning
        # its partial batch) when it observes a new generation, so dispatcher
        # shutdown interrupts the wait instead of riding out the timer.
        self._wake_generation = 0

    def qsize(self) -> int:
        return len(self._items)

    def saturation(self) -> float:
        """Queue fullness in [0, 1]; always 0.0 for unbounded queues."""
        if self.maxsize <= 0:
            return 0.0
        return min(1.0, len(self._items) / self.maxsize)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- producer side ---------------------------------------------------------

    async def put(self, item: PendingQuery) -> None:
        """Enqueue one pending query, waiting for space on a bounded queue."""
        if self.maxsize > 0:
            while len(self._items) >= self.maxsize:
                # Re-checked on every wake-up: a producer parked on a full
                # queue must raise promptly when the queue closes mid-wait,
                # not only once space frees up.
                if self._closed:
                    raise RuntimeError(f"batching queue '{self.name}' is closed")
                waiter = asyncio.get_running_loop().create_future()
                self._putters.append(waiter)
                try:
                    await waiter
                except asyncio.CancelledError:
                    # If this producer absorbed a freed-slot wake-up it can no
                    # longer use, pass it on so no other producer is stranded.
                    if waiter.done() and len(self._items) < self.maxsize:
                        self._wake_next(self._putters)
                    raise
                finally:
                    self._discard_waiter(self._putters, waiter)
        self.put_nowait(item)
        if self.maxsize > 0 and len(self._items) < self.maxsize:
            self._wake_next(self._putters)

    def put_nowait(self, item: PendingQuery) -> None:
        if self._closed:
            raise RuntimeError(f"batching queue '{self.name}' is closed")
        if self.maxsize > 0 and len(self._items) >= self.maxsize:
            raise asyncio.QueueFull(f"batching queue '{self.name}' is full")
        self._items.append(item)
        if self._getters:
            self._wake_next(self._getters)

    def evict_expiring(self) -> Optional[PendingQuery]:
        """Remove and return the queued entry closest to deadline expiry.

        The ``drop-oldest`` shed policy's victim selector: prefers the item
        with the earliest deadline (the one most likely to miss anyway);
        when no queued item carries a deadline, the head of the queue (the
        oldest entry) is evicted instead.  Returns ``None`` on an empty
        queue.  The caller owns resolving the victim's future.
        """
        items = self._items
        if not items:
            return None
        best_index = -1
        best_deadline: Optional[float] = None
        for index, item in enumerate(items):
            deadline = item.deadline
            if deadline is not None and (
                best_deadline is None or deadline < best_deadline
            ):
                best_index, best_deadline = index, deadline
        if best_index < 0:
            victim = items.popleft()
        else:
            victim = items[best_index]
            del items[best_index]
        self._removed()
        return victim

    # -- consumer side ---------------------------------------------------------

    async def get_batch(
        self,
        max_batch_size: int,
        batch_wait_timeout_ms: float = 0.0,
    ) -> List[PendingQuery]:
        """Wait for work and return a batch of at most ``max_batch_size`` queries.

        Blocks until at least one query is available or the queue closes.  An
        empty list means "nothing for this consumer right now" — either the
        queue closed, or the consumer was woken spuriously (see module
        docstring) — and the caller should re-check state before retrying.

        If the queue holds fewer than ``max_batch_size`` queries and a
        positive ``batch_wait_timeout_ms`` is configured, the call waits up
        to that long for additional queries — the delayed-batching mechanism
        of §4.3.2 — before returning whatever has arrived.  A single deadline
        timer covers the whole delayed wait.
        """
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")

        if not self._items:
            if self._closed:
                return []
            waiter = asyncio.get_running_loop().create_future()
            self._getters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                # If this consumer absorbed a wake-up it can no longer use,
                # pass it on so the item is not stranded.
                if waiter.done() and self._items:
                    self._wake_next(self._getters)
                raise
            finally:
                self._discard_waiter(self._getters, waiter)

        batch: List[PendingQuery] = []
        self._drain_into(batch, max_batch_size)
        if not batch:
            return batch
        if len(batch) < max_batch_size and batch_wait_timeout_ms > 0 and not self._closed:
            await self._fill_delayed(batch, max_batch_size, batch_wait_timeout_ms)
        return batch

    async def _fill_delayed(
        self, batch: List[PendingQuery], max_batch_size: int, batch_wait_timeout_ms: float
    ) -> None:
        """Top up ``batch`` until full, the deadline passes, or the queue closes."""
        loop = asyncio.get_running_loop()
        expired = False
        waiter: Optional[asyncio.Future] = None

        def _on_deadline() -> None:
            nonlocal expired
            expired = True
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

        generation = self._wake_generation
        timer = loop.call_later(batch_wait_timeout_ms / 1000.0, _on_deadline)
        try:
            while (
                len(batch) < max_batch_size
                and not expired
                and not self._closed
                and self._wake_generation == generation
            ):
                waiter = loop.create_future()
                self._getters.append(waiter)
                try:
                    await waiter
                except asyncio.CancelledError:
                    # If this consumer absorbed a wake-up it can no longer
                    # use, pass it on so the item is not stranded.
                    if waiter.done() and self._items:
                        self._wake_next(self._getters)
                    raise
                finally:
                    self._discard_waiter(self._getters, waiter)
                    waiter = None
                self._drain_into(batch, max_batch_size)
        finally:
            timer.cancel()

    def _drain_into(self, batch: List[PendingQuery], max_batch_size: int) -> None:
        """Move already-queued items into ``batch`` without waiting."""
        items = self._items
        while len(batch) < max_batch_size and items:
            batch.append(items.popleft())
        self._removed()

    def _removed(self) -> None:
        """Items left the queue: wake a parked producer, and whoever waits for empty."""
        items = self._items
        if self._putters and (self.maxsize == 0 or len(items) < self.maxsize):
            self._wake_next(self._putters)
        while not items and self._empty_waiters:
            waiter = self._empty_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    async def wait_empty(self, timeout_s: Optional[float] = None) -> bool:
        """Wait (event-driven) until consumers have drained every item.

        Returns True once the queue is empty, or False on timeout.  Used by
        the management plane to let a model's own dispatchers finish the
        queued work before teardown — "empty" means handed to a dispatcher,
        not yet necessarily resolved, so callers still stop the dispatchers
        (which await their in-flight batch) afterwards.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while self._items:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            waiter = asyncio.get_running_loop().create_future()
            self._empty_waiters.append(waiter)
            try:
                if remaining is None:
                    await waiter
                else:
                    await asyncio.wait_for(waiter, timeout=remaining)
            except asyncio.TimeoutError:
                return False
            finally:
                self._discard_waiter(self._empty_waiters, waiter)
        return True

    # -- wake-up plumbing ------------------------------------------------------

    @staticmethod
    def _wake_next(waiters: Deque[asyncio.Future]) -> None:
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    @staticmethod
    def _discard_waiter(waiters: Deque[asyncio.Future], waiter: asyncio.Future) -> None:
        try:
            waiters.remove(waiter)
        except ValueError:
            pass

    def wake_all(self) -> None:
        """Wake every blocked consumer (used for prompt dispatcher shutdown).

        Consumers parked waiting for a first item return an empty batch;
        consumers in a delayed-batching wait return their partial batch
        immediately instead of riding out the deadline timer.
        """
        self._wake_generation += 1
        while self._getters:
            waiter = self._getters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    def close(self) -> None:
        """Mark the queue closed; dispatchers drain remaining items then stop.

        Wakes every blocked producer and consumer immediately — consumers see
        an empty batch (or the remaining items) and exit, producers raise.
        """
        self._closed = True
        self.wake_all()
        while self._putters:
            waiter = self._putters.popleft()
            if not waiter.done():
                waiter.set_result(None)
