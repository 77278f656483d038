"""The clock contract, and the virtual-time loop the tests run the engine on.

``repro.core.clock`` states that ``clock.now`` is the running loop's clock:
the deadline sweeper hands ``clock.now()`` deadlines to ``loop.call_at``.
The first class checks that on a stock asyncio loop; the second that
``tests/simloop.py`` keeps the same contract in virtual time, and that real
worker daemons serve on it.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from helpers import run_async
from repro.cluster.remote import WorkerPlacer
from repro.cluster.worker import WorkerDaemon
from repro.containers.noop import NoOpContainer
from repro.core import clock
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from simloop import run_virtual


class TestTheWrittenContract:
    def test_a_fresh_loop_and_clock_now_read_the_same_clock(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            reads = []
            for _ in range(1000):
                reads.append(loop.time())
                reads.append(clock.now())
            assert reads == sorted(reads)
            assert max(b - a for a, b in zip(reads, reads[1:])) < 0.001

        run_async(scenario())

    def test_a_timer_at_a_clock_now_deadline_fires_no_earlier(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            for delay in (0.002, 0.005, 0.010):
                fired = loop.create_future()
                set_at = clock.now()
                loop.call_at(set_at + delay, lambda f=fired: f.set_result(clock.now()))
                assert await fired - set_at >= delay

        run_async(scenario())


class TestVirtualLoop:
    def test_sleeps_timeouts_and_executor_calls_take_no_wall_time(self):
        async def scenario():
            start = clock.now()
            await asyncio.sleep(60)
            try:
                await asyncio.wait_for(asyncio.Event().wait(), timeout=1.0)
            except asyncio.TimeoutError:
                pass
            assert await asyncio.get_running_loop().run_in_executor(None, sum, (1, 2)) == 3
            return clock.now() - start

        began = time.perf_counter()
        assert run_virtual(scenario()) == 61.0
        assert time.perf_counter() - began < 1.0

    def test_clock_now_is_the_loop_time_for_the_run_only(self):
        real = clock.now

        async def scenario():
            assert clock.now == asyncio.get_running_loop().time
            await asyncio.sleep(5)
            return clock.now()

        assert run_virtual(scenario()) == 5.0
        assert clock.now is real

    def test_a_timer_fires_exactly_at_its_time(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            fired = []
            for when in (0.3, 0.1, 0.25, 7e-3):
                loop.call_at(when, lambda when=when: fired.append((when, clock.now())))
            await asyncio.sleep(1)
            return fired

        fired = run_virtual(scenario())
        assert [when for when, _ in fired] == [7e-3, 0.1, 0.25, 0.3]
        assert all(when == at for when, at in fired)

    def test_worker_daemons_answer_every_query_through_their_executor_hop(self, tmp_path):
        # A worker's container server sends a batch through an executor
        # thread.  Mutant: the selector jumps virtual time to the next timer
        # while that thread runs, so the straggler deadline (1 s) fires
        # before the answer and query 1 raises PredictionTimeoutError.
        async def scenario():
            factories = {"echo": lambda: NoOpContainer(output=1)}
            daemons = [WorkerDaemon(f"w{i}", str(tmp_path), factories=factories) for i in (0, 1)]
            for daemon in daemons:
                await daemon.start()
            clipper = Clipper(
                ClipperConfig(app_name="app", latency_slo_ms=1000.0, cache_size=0),
                placement=WorkerPlacer(daemons[0].registry).replica_builder,
            )
            clipper.deploy_model(
                ModelDeployment(
                    "m", NoOpContainer, factory_name="echo", num_replicas=2, transport="tcp"
                )
            )
            await clipper.start()
            try:
                outputs = [
                    (await clipper.predict(Query("app", np.full(4, float(i))))).output
                    for i in range(200)
                ]
                homes = {r.worker.worker_id for r in clipper.model_record("m").replicas}
            finally:
                await clipper.stop()
                for daemon in daemons:
                    await daemon.stop()
            return outputs, homes, clock.now()

        began = time.perf_counter()
        outputs, homes, virtual_s = run_virtual(scenario())
        assert outputs == [1] * 200  # the worker's factory, not the local one (0)
        assert homes == {"w0", "w1"}
        assert virtual_s < 1.0
        assert time.perf_counter() - began < 10.0
