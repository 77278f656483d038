"""The two ways a test controls time: a virtual-time loop and a hand-set clock.

:func:`run_virtual` runs a coroutine on a :class:`VirtualLoop` with
``repro.core.clock.now`` bound to the loop's virtual ``time()``.  When no
callback is ready and no file descriptor is, the loop jumps straight to its
next timer instead of sleeping, so ``asyncio.sleep(60)`` costs no wall time.
With no timer pending it blocks on real I/O, which is how an executor
thread's result still arrives (in real time).

:class:`ManualClock` is for synchronous tests: ``clock.now`` and
``clock.wall`` read two numbers the test sets or :meth:`~ManualClock.advance`\\ s.
"""

from __future__ import annotations

import asyncio
import selectors

from repro.core import clock


class _VirtualSelector(selectors.DefaultSelector):
    def __init__(self, loop: "VirtualLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        if timeout is None:
            return super().select(None)
        ready = super().select(0)
        if not ready and timeout > 0:
            # asyncio asks for ``timeout`` because the head timer is due
            # then: land on its exact time, not on ``now + timeout``.
            self._loop.now = self._loop._scheduled[0].when()
        return ready


class VirtualLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock moves only when it would block."""

    def __init__(self) -> None:
        self.now = 0.0
        super().__init__(_VirtualSelector(self))

    def time(self) -> float:
        return self.now


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
