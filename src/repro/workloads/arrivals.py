"""Arrival processes for open-loop query workloads.

The serving experiments in the paper are driven by request streams of
different shapes: steady high-rate load (throughput measurements), moderate
load (the delayed-batching experiment explicitly targets "moderate or bursty
loads"), and bursty flash-crowd style arrivals.  Each process yields
inter-arrival gaps in seconds and is deterministic under a fixed seed.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np


class ArrivalProcess:
    """Base class: an iterator of inter-arrival gaps (seconds)."""

    def gaps(self, n: int) -> Iterator[float]:
        """Yield ``n`` inter-arrival gaps."""
        raise NotImplementedError

    def arrival_times(self, n: int, start: float = 0.0) -> np.ndarray:
        """Absolute arrival times of ``n`` queries starting at ``start``."""
        times = np.empty(n)
        current = start
        for i, gap in enumerate(self.gaps(n)):
            current += gap
            times[i] = current
        return times


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with exponential inter-arrival gaps."""

    def __init__(self, rate_qps: float, random_state: Optional[int] = None) -> None:
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        self.rate_qps = rate_qps
        self._rng = np.random.default_rng(random_state)

    def gaps(self, n: int) -> Iterator[float]:
        for gap in self._rng.exponential(1.0 / self.rate_qps, size=n):
            yield float(gap)


class BurstyArrivals(ArrivalProcess):
    """Two-state (on/off) bursty arrivals.

    Alternates between a burst state, where queries arrive at ``burst_qps``,
    and an idle state at ``idle_qps``; state dwell times are geometric with
    the configured mean lengths.  Models flash-crowd behaviour such as a
    breaking-news traffic spike.
    """

    def __init__(
        self,
        burst_qps: float,
        idle_qps: float,
        mean_burst_length: int = 50,
        mean_idle_length: int = 50,
        random_state: Optional[int] = None,
    ) -> None:
        if burst_qps <= 0 or idle_qps <= 0:
            raise ValueError("rates must be positive")
        if mean_burst_length < 1 or mean_idle_length < 1:
            raise ValueError("mean state lengths must be >= 1")
        self.burst_qps = burst_qps
        self.idle_qps = idle_qps
        self.mean_burst_length = mean_burst_length
        self.mean_idle_length = mean_idle_length
        self._rng = np.random.default_rng(random_state)

    def gaps(self, n: int) -> Iterator[float]:
        emitted = 0
        in_burst = True
        while emitted < n:
            mean_length = self.mean_burst_length if in_burst else self.mean_idle_length
            length = int(self._rng.geometric(1.0 / mean_length))
            length = min(length, n - emitted)
            rate = self.burst_qps if in_burst else self.idle_qps
            for gap in self._rng.exponential(1.0 / rate, size=length):
                yield float(gap)
            emitted += length
            in_burst = not in_burst
