"""The two ways a test controls time, and a model replica that runs on one.

:func:`run_virtual` runs a coroutine on a :class:`VirtualLoop` with
``repro.core.clock.now`` bound to the loop's virtual ``time()``.  When no
callback is ready and no file descriptor is, the loop jumps straight to its
next timer instead of sleeping, so ``asyncio.sleep(60)`` costs no wall time.
While an executor call is in flight, or with no timer pending, it blocks on
real I/O instead: that is how an executor thread's result still arrives (in
real time) before virtual time moves past it.

:class:`ManualClock` is for synchronous tests: ``clock.now`` and
``clock.wall`` read two numbers the test sets or :meth:`~ManualClock.advance`\\ s.

:class:`SimulatedReplica` is a container that costs loop time instead of
computing: :func:`placement` puts a :class:`~repro.core.clipper.Clipper`'s
models on them, and ``paperkit.load.drive`` paces the load on the loop's
clock.
"""

from __future__ import annotations

import asyncio
import random
import selectors

from repro.containers.replica import Replica
from repro.core import clock
from repro.rpc.protocol import RpcResponse


class _VirtualSelector(selectors.DefaultSelector):
    def __init__(self, loop: "VirtualLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        if timeout is None:
            return super().select(None)
        ready = super().select(0)
        if not ready and timeout > 0:
            if self._loop.in_executor:
                # A thread's result is on its way: wait for it in real time
                # rather than jump past it.  Only here, with nothing ready:
                # at ``timeout == 0`` the result's done callback may itself
                # be the ready callback, and blocking then would deadlock.
                return super().select(None)
            # asyncio asks for ``timeout`` because the head timer is due
            # then: land on its exact time, not on ``now + timeout``.
            self._loop.now = self._loop._scheduled[0].when()
        return ready


class VirtualLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock moves only when it would block."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Executor calls whose results the loop has not yet taken.
        self.in_executor = 0
        super().__init__(_VirtualSelector(self))

    def time(self) -> float:
        return self.now

    def run_in_executor(self, executor, func, *args):
        future = super().run_in_executor(executor, func, *args)
        self.in_executor += 1
        future.add_done_callback(self._executor_done)
        return future

    def _executor_done(self, future) -> None:
        self.in_executor -= 1


def run_virtual(coroutine):
    """Run ``coroutine`` on a fresh :class:`VirtualLoop`; the engine reads its clock."""
    with asyncio.Runner(loop_factory=VirtualLoop) as runner:
        real, clock.now = clock.now, runner.get_loop().time
        try:
            return runner.run(coroutine)
        finally:
            clock.now = real


class ManualClock:
    """``clock.now()`` and ``clock.wall()`` as two numbers set by hand.

    They stand still until the test moves them, so building one is also how
    a test keeps time from passing under the code it checks.
    """

    def __init__(self, monkeypatch, now: float = 1000.0, wall: float = 1.7e9) -> None:
        self.now, self.wall = now, wall
        monkeypatch.setattr(clock, "now", lambda: self.now)
        monkeypatch.setattr(clock, "wall", lambda: self.wall)

    def advance(self, seconds: float) -> None:
        """Move both clocks forward together."""
        self.now += seconds
        self.wall += seconds


class SimulatedReplica(Replica):
    """A serial container whose batch of ``size`` costs ``a + b * size`` ms of loop time.

    ``line`` is ``(a_ms, b_ms)``.  ``tail`` is ``(chance, scale_ms)``: with
    that chance per batch, a draw from a seeded Pareto of shape 2.5 and that
    scale is added to the cost.  ``answer(model_name, x)`` is the output for
    input ``x``; by default the model's name.
    """

    def __init__(self, model_id, replica_id, line, tail=(0.0, 0.0), seed=0, answer=None):
        super().__init__(model_id, replica_id)
        self.line, self.tail = line, tail
        self.answer = answer or (lambda model, x: model)
        self._rng = random.Random(seed)
        self._free_at = 0.0

    async def start(self) -> None:
        self._started = True

    async def stop(self) -> None:
        self._started = False

    async def predict_batch(self, inputs, span_log=None, deadlines=None):
        (a_ms, b_ms), (chance, scale_ms) = self.line, self.tail
        eval_ms = a_ms + b_ms * len(inputs)
        if self._rng.random() < chance:
            eval_ms += scale_ms * self._rng.paretovariate(2.5)
        # One batch at a time: a batch sent while another runs waits for it.
        self._free_at = max(clock.now(), self._free_at) + eval_ms / 1000.0
        await asyncio.sleep(self._free_at - clock.now())
        name = self.model_id.name
        return RpcResponse(
            request_id=0,
            outputs=[self.answer(name, x) for x in inputs],
            container_latency_ms=eval_ms,
        )


def placement(shapes, seed, answer=None):
    """A placement putting model ``name`` on a :class:`SimulatedReplica`.

    ``shapes[name]`` is the replica's ``(line, tail)``; each model's tail is
    seeded by ``seed`` and its name, so two models' stragglers are unrelated.
    """

    def place(deployment, model_id):
        line, tail = shapes[model_id.name]
        return lambda replica_id, avoid: SimulatedReplica(
            model_id, replica_id, line, tail, f"{seed}/{model_id.name}", answer
        )

    return place

