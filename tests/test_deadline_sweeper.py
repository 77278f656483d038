"""The straggler-deadline contract written into ``DeadlineSweeper``'s docstring.

Retention (what it references is the futures in flight, not the futures
answered within the last SLO), timers (one at most), punctuality (a
straggler resolves at its deadline, a shorter per-query SLO included) and
event loops (a sweeper whose loop closed).
Run in CI under ``-X dev -W error::ResourceWarning`` as well.
"""

from __future__ import annotations

import asyncio
import gc
import time
import weakref

import numpy as np

from helpers import run_async

from repro.batching.deadline import DEADLINE_MISS, DeadlineSweeper
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query

IN_FLIGHT = 32
ANSWERED = 4000  # >> IN_FLIGHT
#: How late a straggler may be declared: the contract's 1 ms (the loop's
#: clock reaching the deadline is what fires the timer) plus what a busy CI
#: host adds before the callback is seen.
LATE_S = 0.001 + 0.015


def sweeper_timers(loop, sweeper):
    """The live (not cancelled) timers on ``loop`` that belong to ``sweeper``."""
    return [
        handle
        for handle in loop._scheduled
        if not handle.cancelled()
        and getattr(handle._callback, "__self__", None) is sweeper
    ]


class StuckContainer(ModelContainer):
    """Answers long after any deadline in this file."""

    framework = "test"

    def predict_batch(self, inputs):
        time.sleep(0.3)
        return [7] * len(inputs)


class TestRetention:
    def test_answered_futures_are_released_as_their_successors_arrive(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sweeper = DeadlineSweeper()
            in_flight, released = [], []
            for i in range(ANSWERED):
                future = loop.create_future()
                released.append(weakref.ref(future))
                sweeper.register(future, time.monotonic() + 10.0, loop)
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
                deadline = time.monotonic() + budget_s
                future.add_done_callback(
                    lambda f: resolved_at.setdefault(name, time.monotonic() - deadline)
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
            for name in ("short", "first", "later"):
                assert 0.0 <= resolved_at[name] < LATE_S, (name, resolved_at)
            # Nothing left, and the timer is gone with the last entry.
            assert not sweeper._pending
            assert sweeper_timers(loop, sweeper) == []

        run_async(scenario())

    def test_an_earlier_deadline_after_the_line_emptied_rearms_the_one_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sweeper = DeadlineSweeper()
            long_gone = loop.create_future()
            sweeper.register(long_gone, time.monotonic() + 10.0, loop)
            long_gone.set_result("answered")
            straggler = loop.create_future()
            deadline = time.monotonic() + 0.010
            sweeper.register(straggler, deadline, loop)
            assert len(sweeper_timers(loop, sweeper)) == 1
            assert await asyncio.wait_for(straggler, timeout=1.0) is DEADLINE_MISS
            assert time.monotonic() - deadline < LATE_S

        run_async(scenario())


class TestAcrossEventLoops:
    def test_a_sweeper_whose_loop_closed_starts_over_on_the_next(self):
        sweeper = DeadlineSweeper()

        async def abandoned():
            # Left unresolved, timer armed, when its loop closes.
            loop = asyncio.get_running_loop()
            sweeper.register(loop.create_future(), time.monotonic() + 10.0, loop)

        async def straggler():
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            deadline = time.monotonic() + 0.010
            sweeper.register(future, deadline, loop)
            assert len(sweeper._pending) == 1  # the old loop's entry is gone
            assert await asyncio.wait_for(future, timeout=1.0) is DEADLINE_MISS
            return time.monotonic() - deadline

        run_async(abandoned())
        assert 0.0 <= run_async(straggler()) < LATE_S
