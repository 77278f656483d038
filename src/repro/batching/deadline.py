"""Straggler deadlines for queued queries (paper §5.2.2).

A pending model future that is still unresolved at its query's deadline is
resolved with :data:`DEADLINE_MISS`, so the serving engine renders the
query from the remaining models (or the default output) on time while the
container's late answer still reaches the prediction cache through the
dispatcher's late-result sink.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional, Tuple

from repro.core import clock

#: Sentinel resolved into a pending model future when its straggler deadline
#: passes before the container answers (the sweeper's timer, the dispatcher
#: finding it expired when a batch forms, or the container skipping it), or
#: when the ``drop-oldest`` shed policy evicts it from its queue: all through
#: :func:`expire`.  A sentinel (not an exception) keeps
#: abandoned futures from logging "exception was never retrieved" and tells
#: a query "timed out" apart from a genuine failure (the dispatcher still
#: caches the real output when it lands).
DEADLINE_MISS = object()


def expire(future: asyncio.Future) -> None:
    """Resolve ``future`` with :data:`DEADLINE_MISS` unless it has resolved."""
    if not future.done():
        future.set_result(DEADLINE_MISS)


class DeadlineSweeper:
    """Resolves pending futures with :data:`DEADLINE_MISS` at their deadline.

    Deadlines arrive in order (arrival plus one SLO), so the pending futures
    are a FIFO of ``(deadline, future)`` and registering one is a
    ``deque.append``.  The contract (``tests/test_deadline_sweeper.py``):

    * **Retention.**  Each registration pops the resolved entries off the
      head: what is held is the futures in flight, not those answered within
      the last SLO.  (An unresolved one keeps its successors until its deadline.)
    * **Timers.**  One at most, armed at the head's deadline and re-armed
      when it fires with entries left; none per query or per tick.
    * **Punctuality.**  A future unresolved when the loop's clock reaches its
      deadline is resolved then; a deadline earlier than the tail's (a shorter
      per-query SLO) cannot wait in line and gets a timer of its own.

    A sweeper serves one event loop: a serving engine runs on the loop that
    started it and cannot be restarted.
    """

    __slots__ = ("_pending", "_timer")

    def __init__(self) -> None:
        self._pending: Deque[Tuple[float, asyncio.Future]] = deque()
        self._timer: Optional[asyncio.TimerHandle] = None

    def register(
        self, future: asyncio.Future, deadline: float, loop: asyncio.AbstractEventLoop
    ) -> None:
        """Arrange for ``future``, of ``loop``, to resolve by ``deadline`` (``clock.now()``)."""
        pending = self._pending
        while pending and pending[0][1].done():
            pending.popleft()
        if not pending:
            timer = self._timer
            if timer is None or deadline < timer.when():
                if timer is not None:
                    timer.cancel()
                self._timer = loop.call_at(deadline, self._sweep, loop)
        elif deadline < pending[-1][0]:
            loop.call_at(deadline, expire, future)
            return
        pending.append((deadline, future))

    def _sweep(self, loop: asyncio.AbstractEventLoop) -> None:
        """Resolve what is due at the head; re-arm for what is left."""
        pending = self._pending
        now = clock.now()
        while pending and (pending[0][0] <= now or pending[0][1].done()):
            expire(pending.popleft()[1])
        self._timer = loop.call_at(pending[0][0], self._sweep, loop) if pending else None
