"""Load for the figures: one driver, two schedules, on whichever clock runs it.

:func:`drive` starts the caller's ``query(i)`` coroutine for i = 0, 1, ...
on one of two schedules:

* **closed loop** — ``users`` share ``count`` indices, each taking the next
  one when its last query returns (the maximum sustained throughput of
  Figs. 4 and 11);
* **due times** — ``due(start)`` yields each arrival's time on the loop's
  clock: :func:`poisson` for seeded Poisson arrivals (Figs. 5 and 9), or
  ``lambda start: start + times`` for any array of offsets.

Arrivals are armed with ``loop.call_at`` on the running loop's clock, one
timer pending at a time: wall time on asyncio's loop, virtual time on
``tests/simloop.py``'s ``VirtualLoop``.  Every latency is timed by the
driver on that clock, so systems are compared on one clock whatever they
measure internally.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Iterable, List, NamedTuple, Optional

from paperkit.reporting import summarize_latencies


#: A schedule: the due times on the loop's clock, given its reading at the start.
Schedule = Callable[[float], Iterable[float]]


class Answer(NamedTuple):
    """One query's outcome: its latency (``None`` if it raised) and the clock when it ended."""

    latency_ms: Optional[float]
    at: float


def poisson(rate_qps: float, seconds: float, seed) -> Schedule:
    """Due times of seeded Poisson arrivals at ``rate_qps`` for ``seconds`` from the start.

    Each time is the last plus one ``random.Random(seed).expovariate`` gap,
    accumulated from the start's clock reading, so one seed gives one float
    sequence on any clock.
    """

    def times(start: float) -> Iterable[float]:
        gaps, due, end = random.Random(seed), start, start + seconds
        while (due := due + gaps.expovariate(rate_qps)) < end:
            yield due

    return times


async def drive(
    query: Callable[[int], Awaitable[Any]], *, users=0, count=0, due: Optional[Schedule] = None,
    fails=(),
) -> List[Answer]:
    """Run ``query(i)`` at ``due`` times, or closed-loop (``users``, ``count``); one answer per i.

    A closed-loop latency counts from when the user sent the query, an
    open-loop one from its due time.  A query that raises one of ``fails``
    (an exception class or a tuple of them, as ``except`` takes) is a
    measurement, not a crash: its answer has no latency.  Any other
    exception (raised in an ``ExceptionGroup``), or the caller cancelling
    the driver, ends the run and cancels the queries still in flight.
    """
    loop = asyncio.get_running_loop()
    answers: Dict[int, Answer] = {}

    async def run(i: int, sent: float) -> None:
        try:
            await query(i)
        except fails:
            answers[i] = Answer(None, loop.time())
        else:
            now = loop.time()
            answers[i] = Answer((now - sent) * 1000.0, now)

    async with asyncio.TaskGroup() as group:
        if due is None:
            indices = iter(range(count))

            async def user() -> None:
                for i in indices:
                    await run(i, loop.time())

            for _ in range(users):
                group.create_task(user())
        else:
            for i, when in enumerate(due(loop.time())):
                # An arrival already due starts at once: a loop that fell behind
                # a burst catches up in one step, not one loop pass per query.
                if when > loop.time():
                    arrived = loop.create_future()
                    timer = loop.call_at(when, arrived.set_result, None)
                    try:
                        await arrived
                    except asyncio.CancelledError:  # the armed arrival must not fire into it
                        timer.cancel()
                        raise
                group.create_task(run(i, when))
    return [answers[i] for i in range(len(answers))]


@dataclass
class LoadResult:
    """One load run: how many queries, how many failed, how long, and each latency."""

    num_queries: int
    num_errors: int
    elapsed_s: float
    latencies_ms: List[float]
    label: str = ""
    mean_batch_size: float = 0.0

    @classmethod
    def of(cls, answers: List[Answer], start: float) -> "LoadResult":
        """The run whose answers :func:`drive` returned, begun at ``start`` on the same clock."""
        latencies = [a.latency_ms for a in answers if a.latency_ms is not None]
        elapsed = max(a.at for a in answers) - start
        return cls(len(answers), len(answers) - len(latencies), elapsed, latencies)

    @property
    def throughput_qps(self) -> float:
        """Answered queries per second of the run."""
        return (self.num_queries - self.num_errors) / self.elapsed_s

    @property
    def mean_latency_ms(self) -> float:
        return summarize_latencies(self.latencies_ms)["mean"]

    @property
    def p99_latency_ms(self) -> float:
        return summarize_latencies(self.latencies_ms)["p99"]

    def as_row(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "throughput_qps": self.throughput_qps,
            "mean_latency_ms": self.mean_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_batch_size": self.mean_batch_size,
            "errors": self.num_errors,
        }
