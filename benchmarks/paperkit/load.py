"""Load for the serving figures: an arrival process and one load driver.

:func:`run_load` drives any ``predict(x)`` coroutine — Clipper's, the
TensorFlow-Serving-like baseline's — in one of two shapes:

* closed loop (no ``arrivals``): ``concurrency`` users, each issuing its next
  query as soon as its last one is answered.  This is how the maximum
  sustained throughput of Figures 4 and 11 is measured.
* open loop: queries issued at the times an arrival process draws,
  independent of the answers — the moderate load of Figure 5, where
  queueing behaviour matters.

Every latency is timed by the caller, around the ``await``, so systems are
compared on the same clock whatever they measure internally.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

import numpy as np

from paperkit.reporting import summarize_latencies


class PoissonArrivals:
    """Memoryless arrivals: exponential gaps at ``rate_qps``, deterministic per seed."""

    def __init__(self, rate_qps: float, random_state: Optional[int] = None) -> None:
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        self.rate_qps = rate_qps
        self._rng = np.random.default_rng(random_state)

    def arrival_times(self, n: int) -> np.ndarray:
        """Times (s) of ``n`` arrivals, counted from 0; the first comes one gap in."""
        return np.cumsum(self._rng.exponential(1.0 / self.rate_qps, size=n))


@dataclass
class LoadResult:
    """One load run: how many queries, how many failed, how long, and each latency."""

    num_queries: int
    num_errors: int
    elapsed_s: float
    latencies_ms: List[float]
    label: str = ""
    mean_batch_size: float = 0.0

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


async def run_load(
    predict: Callable[[Any], Awaitable[Any]],
    inputs: Sequence[Any],
    num_queries: int,
    *,
    concurrency: int = 32,
    arrivals: Optional[PoissonArrivals] = None,
) -> LoadResult:
    """Send ``num_queries`` queries, cycling through ``inputs``, to ``predict``.

    Closed loop with ``concurrency`` users by default; open loop on the
    schedule of ``arrivals`` when one is given (the first query is sent at
    once).  A query whose ``predict`` raises counts as an error and has no
    latency.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if len(inputs) == 0:
        raise ValueError("inputs must be non-empty")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    latencies: List[float] = []
    errors = 0
    queries = (inputs[i % len(inputs)] for i in range(num_queries))

    async def timed(x: Any) -> None:
        nonlocal errors
        sent = time.perf_counter()
        try:
            await predict(x)
        except Exception:  # a failed query is a measurement, not a crash
            errors += 1
            return
        latencies.append((time.perf_counter() - sent) * 1000.0)

    async def user() -> None:
        for x in queries:
            await timed(x)

    start = time.perf_counter()
    if arrivals is None:
        await asyncio.gather(*(user() for _ in range(concurrency)))
    else:
        due = arrivals.arrival_times(num_queries)
        loop = asyncio.get_running_loop()
        sent = []
        for offset, x in zip(due - due[0], queries):
            delay = start + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent.append(loop.create_task(timed(x)))
        await asyncio.gather(*sent)
    return LoadResult(num_queries, errors, time.perf_counter() - start, latencies)
