"""Workload clients driving a Clipper instance and collecting measurements.

Two client shapes cover the paper's serving experiments:

* :class:`ClosedLoopClient` — a fixed number of concurrent "users", each
  issuing the next query as soon as the previous prediction returns.  This is
  how the maximum-sustained-throughput numbers (Figures 4 and 11) are
  measured: concurrency is raised until the system saturates.
* :class:`OpenLoopClient` — queries arrive according to an
  :class:`~repro.workloads.arrivals.ArrivalProcess` independent of response
  times, which is the right model for the moderate/bursty-load experiments
  (Figure 5) where queueing behaviour matters.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


from repro.core.clipper import Clipper
from repro.core.exceptions import ClipperError, PredictionTimeoutError
from repro.core.metrics import summarize_latencies, throughput_qps
from repro.core.types import Prediction, Query
from repro.workloads.arrivals import ArrivalProcess


@dataclass
class WorkloadResult:
    """Aggregate measurements from one workload run."""

    num_queries: int
    num_errors: int
    elapsed_s: float
    latencies_ms: List[float] = field(default_factory=list)
    predictions: List[Prediction] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        return throughput_qps(self.num_queries - self.num_errors, self.elapsed_s)

    def latency_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.latencies_ms)

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_summary()["mean"]

    @property
    def p99_latency_ms(self) -> float:
        return self.latency_summary()["p99"]


class _QuerySource:
    """Cycles through a pool of inputs, assigning optional user contexts."""

    def __init__(
        self,
        app_name: str,
        inputs: Sequence[Any],
        user_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if len(inputs) == 0:
            raise ValueError("inputs must be non-empty")
        self.app_name = app_name
        self.inputs = list(inputs)
        self.user_ids = list(user_ids) if user_ids is not None else None
        if self.user_ids is not None and len(self.user_ids) != len(self.inputs):
            raise ValueError("user_ids must align with inputs when provided")
        self._next = 0

    def next_query(self) -> Query:
        index = self._next % len(self.inputs)
        self._next += 1
        user_id = self.user_ids[index] if self.user_ids is not None else None
        return Query(app_name=self.app_name, input=self.inputs[index], user_id=user_id)


class ClosedLoopClient:
    """Fixed-concurrency client measuring sustained throughput and latency."""

    def __init__(
        self,
        clipper: Clipper,
        inputs: Sequence[Any],
        concurrency: int = 8,
        user_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.clipper = clipper
        self.concurrency = concurrency
        self._source = _QuerySource(clipper.config.app_name, inputs, user_ids)

    async def run(self, num_queries: int) -> WorkloadResult:
        """Issue ``num_queries`` queries with the configured concurrency."""
        if num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        latencies: List[float] = []
        predictions: List[Prediction] = []
        errors = 0
        remaining = num_queries
        lock = asyncio.Lock()

        async def worker() -> None:
            nonlocal remaining, errors
            while True:
                async with lock:
                    if remaining <= 0:
                        return
                    remaining -= 1
                    query = self._source.next_query()
                try:
                    prediction = await self.clipper.predict(query)
                    latencies.append(prediction.latency_ms)
                    predictions.append(prediction)
                except (PredictionTimeoutError, ClipperError):
                    errors += 1

        start = time.perf_counter()
        await asyncio.gather(*[worker() for _ in range(self.concurrency)])
        elapsed = time.perf_counter() - start
        return WorkloadResult(
            num_queries=num_queries,
            num_errors=errors,
            elapsed_s=elapsed,
            latencies_ms=latencies,
            predictions=predictions,
        )


class OpenLoopClient:
    """Arrival-process-driven client (queries issued independent of responses)."""

    def __init__(
        self,
        clipper: Clipper,
        inputs: Sequence[Any],
        arrivals: ArrivalProcess,
        user_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        self.clipper = clipper
        self.arrivals = arrivals
        self._source = _QuerySource(clipper.config.app_name, inputs, user_ids)

    async def run(self, num_queries: int) -> WorkloadResult:
        """Issue ``num_queries`` queries following the arrival process."""
        if num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        latencies: List[float] = []
        predictions: List[Prediction] = []
        errors = 0
        tasks: List[asyncio.Task] = []

        async def issue(query: Query) -> None:
            nonlocal errors
            try:
                prediction = await self.clipper.predict(query)
                latencies.append(prediction.latency_ms)
                predictions.append(prediction)
            except (PredictionTimeoutError, ClipperError):
                errors += 1

        start = time.perf_counter()
        loop_start = time.monotonic()
        arrival_offsets = self.arrivals.arrival_times(num_queries)
        # Normalise so the first query fires immediately.
        arrival_offsets = arrival_offsets - arrival_offsets[0]
        for offset in arrival_offsets:
            now = time.monotonic() - loop_start
            delay = float(offset) - now
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.get_event_loop().create_task(issue(self._source.next_query())))
        if tasks:
            await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - start
        return WorkloadResult(
            num_queries=num_queries,
            num_errors=errors,
            elapsed_s=elapsed,
            latencies_ms=latencies,
            predictions=predictions,
        )
