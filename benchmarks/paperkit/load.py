"""Load for the serving figures: one closed-loop driver.

:func:`run_load` drives any ``predict(x)`` coroutine — Clipper's, the
TensorFlow-Serving-like baseline's — with ``concurrency`` users, each
issuing its next query as soon as its last one is answered.  This is how the
maximum sustained throughput of Figure 11 is measured.

Every latency is timed by the caller, around the ``await``, so systems are
compared on the same clock whatever they measure internally.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Sequence

from paperkit.reporting import summarize_latencies


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
) -> LoadResult:
    """Send ``num_queries`` queries, cycling through ``inputs``, to ``predict``.

    ``concurrency`` users share the queries.  A query whose ``predict``
    raises counts as an error and has no latency.
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

    async def user() -> None:
        nonlocal errors
        for x in queries:
            sent = time.perf_counter()
            try:
                await predict(x)
            except Exception:  # a failed query is a measurement, not a crash
                errors += 1
                continue
            latencies.append((time.perf_counter() - sent) * 1000.0)

    start = time.perf_counter()
    await asyncio.gather(*(user() for _ in range(concurrency)))
    return LoadResult(num_queries, errors, time.perf_counter() - start, latencies)
