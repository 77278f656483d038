"""Where a container is evaluated: the executor until measured cheap, then the loop.

``ContainerRpcServer`` starts every container in the thread-pool executor,
because a container may block.  After ``INLINE_STREAK`` executor evaluations
in a row that computed for less than the measured executor hop, it calls the
container on the event loop; one inline call slower than the hop estimate
sends it back.  These tests watch which thread each ``predict_batch`` ran on
and a 1 ms ticker on the loop: how many times it ticked while a batch was
held, and how long it waited between ticks.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import List, Optional

import numpy as np
import pytest

from helpers import run_async
from repro.containers.base import ModelContainer
from repro.containers.replica import ContainerReplica
from repro.core.types import ModelId
from repro.rpc.server import INLINE_STREAK, ContainerRpcServer

LANES = pytest.mark.parametrize("lane", ["inprocess", "tcp"])


class Recording(ModelContainer):
    """Answers ``1`` per input after an optional wait, sleep or raise, noting
    the thread each batch ran on."""

    def __init__(self, sleep_s: float = 0.0) -> None:
        self.sleep_s = sleep_s
        self.gate: Optional[threading.Event] = None
        self.fail: Optional[Exception] = None
        self.threads: List[int] = []

    def predict_batch(self, inputs):
        self.threads.append(threading.get_ident())
        if self.gate is not None:
            self.gate.wait(timeout=5.0)
        if self.sleep_s:
            time.sleep(self.sleep_s)
        if self.fail is not None:
            error, self.fail = self.fail, None
            raise error
        return [1] * len(inputs)


@contextlib.asynccontextmanager
async def ticking():
    """A task waking every 1 ms; yields the list of its gaps (s) so far."""
    gaps: List[float] = []

    async def tick():
        last = time.perf_counter()
        while True:
            await asyncio.sleep(0.001)
            now = time.perf_counter()
            gaps.append(now - last)
            last = now

    task = asyncio.ensure_future(tick())
    await asyncio.sleep(0.005)
    try:
        yield gaps
    finally:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


async def started(container: ModelContainer, lane: str) -> ContainerReplica:
    replica = ContainerReplica(ModelId("inline"), 0, container, transport=lane)
    await replica.start()
    return replica


async def promote(replica: ContainerReplica, container: Recording) -> None:
    """Send cheap batches until the container is called on the loop."""
    loop_thread = threading.get_ident()
    for _ in range(20 * INLINE_STREAK):
        assert (await replica.predict_batch([np.zeros(4)])).ok
        if container.threads[-1] == loop_thread:
            break
    else:
        pytest.fail("a no-op container was never called on the loop")
    # The first evaluation ran in the executor, and so did at least the streak.
    assert container.threads[:INLINE_STREAK].count(loop_thread) == 0


def server_of(replica: ContainerReplica) -> ContainerRpcServer:
    """The container server behind ``replica``, whatever its lane."""
    return replica._server or replica.client._server


class CostlierThanTheHop(Recording):
    """Computes for three times the executor hop its server has measured so
    far, and at least 2 ms (the first batch has no measurement yet)."""

    server: Optional[ContainerRpcServer] = None

    def predict_batch(self, inputs):
        hop_s = self.server._hop_s
        self.sleep_s = 0.002 if hop_s is None else max(0.002, 3.0 * hop_s)
        return super().predict_batch(inputs)


class TestInlineRule:
    @LANES
    def test_a_container_costlier_than_the_hop_is_never_called_on_the_loop(self, lane):
        # The premise (the container costs more than the hop) is taken from
        # the run's own measurement.  A batch counts as cheap only if its own
        # hop is over 17 times the estimate before it, and promotion takes
        # eight cheap batches in a row.
        async def scenario():
            container = CostlierThanTheHop()
            replica = await started(container, lane)
            container.server = server_of(replica)
            try:
                for _ in range(4 * INLINE_STREAK):
                    assert (await replica.predict_batch([np.zeros(4)])).ok
            finally:
                await replica.stop()
            assert threading.get_ident() not in container.threads
            assert len(container.threads) == 4 * INLINE_STREAK

        run_async(scenario())

    @LANES
    def test_a_container_turning_slow_is_demoted_after_exactly_one_batch(self, lane):
        slow_s = 0.05

        async def scenario():
            loop_thread = threading.get_ident()
            container = Recording()
            replica = await started(container, lane)
            try:
                await promote(replica, container)
                promoted = len(container.threads)
                container.sleep_s = slow_s
                async with ticking() as gaps:
                    for _ in range(3):
                        assert (await replica.predict_batch([np.zeros(4)])).ok
                    worst = max(gaps)
            finally:
                await replica.stop()
            on_loop = [t == loop_thread for t in container.threads[promoted:]]
            assert on_loop == [True, False, False]
            # The one inline batch held the loop; nothing else did.
            assert slow_s <= worst < 1.9 * slow_s

        run_async(scenario())

    @LANES
    def test_a_container_gated_from_its_first_batch_never_stalls_the_loop(self, lane):
        ticks_while_gated = 20

        async def scenario():
            container = Recording()
            container.gate = threading.Event()
            replica = await started(container, lane)
            try:
                async with ticking() as gaps:
                    batch = asyncio.ensure_future(replica.predict_batch([np.zeros(4)]))
                    while not container.threads:
                        await asyncio.sleep(0.001)
                    # The container holds its batch; the loop goes on ticking.
                    ticked = len(gaps)
                    while len(gaps) < ticked + ticks_while_gated:
                        await asyncio.sleep(0.001)
                    assert not batch.done()
                    container.gate.set()
                    assert (await batch).ok
            finally:
                container.gate.set()
                await replica.stop()
            assert container.threads[0] != threading.get_ident()

        run_async(scenario())

    @LANES
    def test_an_exception_raised_inline_fails_that_batch_and_serving_goes_on(self, lane):
        async def scenario():
            loop_thread = threading.get_ident()
            container = Recording()
            replica = await started(container, lane)
            try:
                await promote(replica, container)
                container.fail = ValueError("bad input")
                failed = await replica.predict_batch([np.zeros(4)])
                assert not failed.ok and "ValueError: bad input" in failed.error
                assert container.threads[-1] == loop_thread
                answered = await replica.predict_batch([np.zeros(4), np.ones(4)])
                assert answered.ok and answered.outputs == [1, 1]
                assert container.threads[-1] == loop_thread
            finally:
                await replica.stop()

        run_async(scenario())
