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

#: Sentinel resolved into a pending model future when its straggler deadline
#: passes before the container answers, or when the ``drop-oldest`` shed
#: policy evicts it from its queue.  A sentinel (not an exception) keeps
#: abandoned futures from logging "exception was never retrieved" and lets
#: the dispatcher distinguish "timed out, late-fill the cache when the real
#: output lands" from genuine failures.
DEADLINE_MISS = object()


def _expire(future: asyncio.Future) -> None:
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
    * **Loops.**  Entries and timer belong to the event loop that registered
      them; a registration from another loop starts over.
    """

    __slots__ = ("_pending", "_timer", "_loop")

    def __init__(self) -> None:
        self._pending: Deque[Tuple[float, asyncio.Future]] = deque()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def register(
        self, future: asyncio.Future, deadline: float, loop: asyncio.AbstractEventLoop
    ) -> None:
        """Arrange for ``future``, of ``loop``, to resolve by ``deadline`` (monotonic)."""
        if loop is not self._loop:
            # The old loop's timer died with it.
            self._pending = deque()
            self._timer = None
            self._loop = loop
        pending = self._pending
        while pending and pending[0][1].done():
            pending.popleft()
        if not pending:
            timer = self._timer
            if timer is None or deadline < timer.when():
                if timer is not None:
                    timer.cancel()
                self._timer = loop.call_at(deadline, self._sweep)
        elif deadline < pending[-1][0]:
            loop.call_at(deadline, _expire, future)
            return
        pending.append((deadline, future))

    def _sweep(self) -> None:
        """Resolve what is due at the head; re-arm for what is left."""
        pending, loop = self._pending, self._loop
        now = loop.time()
        while pending and (pending[0][0] <= now or pending[0][1].done()):
            _expire(pending.popleft()[1])
        self._timer = loop.call_at(pending[0][0], self._sweep) if pending else None
