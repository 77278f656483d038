"""Straggler deadlines for queued queries (paper §5.2.2).

A pending model future that is still unresolved at its query's deadline is
resolved with :data:`DEADLINE_MISS`, so the serving engine renders the
query from the remaining models (or the default output) on time while the
container's late answer still reaches the prediction cache through the
dispatcher's late-result sink.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

#: Sentinel resolved into a pending model future when its straggler deadline
#: passes before the container answers, or when the ``drop-oldest`` shed
#: policy evicts it from its queue.  A sentinel (not an exception) keeps
#: abandoned futures from logging "exception was never retrieved" and lets
#: the dispatcher distinguish "timed out, late-fill the cache when the real
#: output lands" from genuine failures.
DEADLINE_MISS = object()

#: Granularity of the straggler-deadline sweep.  Queries whose deadlines
#: fall into the same tick share one event-loop timer instead of paying a
#: ``call_later`` + cancel each; a straggler may be declared up to this much
#: late, which is far below scheduling jitter at serving load.
_SWEEP_GRAIN_S = 0.001


class DeadlineSweeper:
    """Resolves pending futures with :data:`DEADLINE_MISS` at their deadline.

    Futures are bucketed by deadline tick; each bucket owns a single
    ``loop.call_at`` timer.  On the serving hot path this replaces one timer
    creation + cancellation per query with a dict probe and a list append —
    the timer count collapses from per-query to per-millisecond.
    """

    __slots__ = ("_buckets", "_loop")

    def __init__(self) -> None:
        self._buckets: Dict[int, List[asyncio.Future]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def register(self, future: asyncio.Future, deadline: float) -> None:
        """Arrange for ``future`` to resolve by ``deadline`` (monotonic)."""
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            # The owning Clipper moved to a new event loop (sync-wrapper
            # usage); the old loop's timers died with it.
            self._buckets = {}
            self._loop = loop
        tick = int(deadline / _SWEEP_GRAIN_S) + 1
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = []
            self._buckets[tick] = bucket
            loop.call_at(tick * _SWEEP_GRAIN_S, self._fire, tick)
        bucket.append(future)

    def _fire(self, tick: int) -> None:
        for future in self._buckets.pop(tick, ()):
            if not future.done():
                future.set_result(DEADLINE_MISS)
