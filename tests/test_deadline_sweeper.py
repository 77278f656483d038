"""The straggler-deadline contract written into ``DeadlineSweeper``'s docstring.

Retention (what it references is the futures in flight, not the futures
answered within the last SLO), timers (one at most) and punctuality (a
straggler resolves at its deadline, a shorter per-query SLO included).  The
punctuality cases run on the virtual-time loop, where "at its deadline"
means exactly.  Run in CI under ``-X dev -W error::ResourceWarning`` as well.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np

from helpers import run_async
from simloop import run_virtual

from repro.batching.deadline import DEADLINE_MISS, DeadlineSweeper
from repro.containers.noop import NoOpContainer
from repro.core import clock
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query

IN_FLIGHT = 32
ANSWERED = 4000  # >> IN_FLIGHT


def sweeper_timers(loop, sweeper):
    """The live (not cancelled) timers on ``loop`` that belong to ``sweeper``."""
    return [
        handle
        for handle in loop._scheduled
        if not handle.cancelled()
        and getattr(handle._callback, "__self__", None) is sweeper
    ]


class TestRetention:
    def test_answered_futures_are_released_as_their_successors_arrive(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sweeper = DeadlineSweeper()
            in_flight, released = [], []
            for i in range(ANSWERED):
                future = loop.create_future()
                released.append(weakref.ref(future))
                sweeper.register(future, clock.now() + 10.0, loop)
                in_flight.append(future)
                if len(in_flight) > IN_FLIGHT:
                    in_flight.pop(0).set_result(i)
                assert len(sweeper_timers(loop, sweeper)) == 1
            del future
            gc.collect()
            held = sum(ref() is not None for ref in released)
            assert held <= 2 * IN_FLIGHT  # the parent held all ANSWERED of them
            assert len(sweeper._pending) <= 2 * IN_FLIGHT
            for future in in_flight:
                future.cancel()

        run_async(scenario())

    def test_a_serving_engine_under_a_long_slo_holds_what_is_in_flight(self):
        async def scenario():
            clipper = Clipper(
                ClipperConfig(
                    app_name="retention", latency_slo_ms=10_000.0,
                    selection_policy="single",
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="noop", container_factory=lambda: NoOpContainer(output=1),
                    serialize_rpc=False,
                )
            )
            await clipper.start()
            loop = asyncio.get_running_loop()
            sweeper = clipper._layer._sweeper
            inputs = iter(range(ANSWERED))

            async def client():
                for i in inputs:
                    await clipper.predict(
                        Query(app_name="retention", input=np.array([float(i)]))
                    )

            await asyncio.gather(*(client() for _ in range(IN_FLIGHT)))
            assert clipper.metrics.counter("predict.count").value == ANSWERED
            assert len(sweeper._pending) <= 2 * IN_FLIGHT
            assert len(sweeper_timers(loop, sweeper)) <= 1
            await clipper.stop()

        run_async(scenario())


class TestPunctuality:
    def test_stragglers_resolve_at_their_deadlines_in_any_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sweeper = DeadlineSweeper()
            resolved_at = {}

            def register(name, budget_s):
                future = loop.create_future()
                deadline = clock.now() + budget_s
                future.add_done_callback(
                    lambda f: resolved_at.setdefault(name, clock.now() - deadline)
                )
                sweeper.register(future, deadline, loop)
                return future

            first = register("first", 0.050)
            # A per-query SLO shorter than its predecessors': not behind them.
            short = register("short", 0.010)
            later = register("later", 0.080)
            answered = register("answered", 0.060)
            answered.set_result("on time")
            for future in (short, first, later):
                assert await future is DEADLINE_MISS
            assert answered.result() == "on time"
            # Exactly at each deadline: no timer slack, no late callback.
            assert [resolved_at[name] for name in ("short", "first", "later")] == [0.0] * 3
            # Nothing left, and the timer is gone with the last entry.
            assert not sweeper._pending
            assert sweeper_timers(loop, sweeper) == []

        run_virtual(scenario())

    def test_an_earlier_deadline_after_the_line_emptied_rearms_the_one_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sweeper = DeadlineSweeper()
            long_gone = loop.create_future()
            sweeper.register(long_gone, clock.now() + 10.0, loop)
            long_gone.set_result("answered")
            straggler = loop.create_future()
            deadline = clock.now() + 0.010
            sweeper.register(straggler, deadline, loop)
            assert len(sweeper_timers(loop, sweeper)) == 1
            assert await asyncio.wait_for(straggler, timeout=1.0) is DEADLINE_MISS
            assert clock.now() == deadline

        run_virtual(scenario())

