"""Model-container latency profiles (Figure 3).

A latency profile is the distribution of batch-evaluation latency as a
function of batch size for one model container.  The paper uses these
profiles to motivate adaptive batching: the maximum batch size that fits a
20 ms SLO differs by more than two orders of magnitude between a linear SVM
and an RBF kernel SVM served from the same system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from paperkit.reporting import summarize_latencies
from repro.containers.base import ModelContainer


@dataclass
class LatencyProfile:
    """Measured latencies per batch size for one container."""

    container_name: str
    batch_sizes: List[int] = field(default_factory=list)
    latencies_ms: Dict[int, List[float]] = field(default_factory=dict)

    def summary(self, batch_size: int) -> Dict[str, float]:
        """Latency summary statistics (ms) at one batch size."""
        return summarize_latencies(self.latencies_ms.get(batch_size, []))

    def p99(self, batch_size: int) -> float:
        return self.summary(batch_size)["p99"]

    def mean(self, batch_size: int) -> float:
        return self.summary(batch_size)["mean"]

    def rows(self) -> List[Dict[str, float]]:
        """One row per batch size: mean / p99 latency in ms and microseconds."""
        rows = []
        for batch_size in self.batch_sizes:
            stats = self.summary(batch_size)
            rows.append(
                {
                    "batch_size": batch_size,
                    "mean_ms": stats["mean"],
                    "p99_ms": stats["p99"],
                    "p99_us": stats["p99"] * 1000.0,
                }
            )
        return rows


def measure_latency_profile(
    container: ModelContainer,
    inputs: Sequence,
    batch_sizes: Sequence[int],
    repeats: int = 5,
    warmup: int = 1,
    name: Optional[str] = None,
) -> LatencyProfile:
    """Measure batch-evaluation latency of ``container`` across batch sizes.

    Inputs are cycled to build each batch; ``warmup`` un-timed evaluations
    precede the ``repeats`` timed ones at every batch size.
    """
    if not inputs:
        raise ValueError("inputs must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    profile = LatencyProfile(container_name=name or type(container).__name__)
    pool = list(inputs)
    for batch_size in batch_sizes:
        if batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        batch = [pool[i % len(pool)] for i in range(batch_size)]
        for _ in range(warmup):
            container.predict_batch(batch)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            container.predict_batch(batch)
            samples.append((time.perf_counter() - start) * 1000.0)
        profile.batch_sizes.append(int(batch_size))
        profile.latencies_ms[int(batch_size)] = samples
    return profile


def max_batch_under_slo(profile: LatencyProfile, slo_ms: float, quantile: float = 99.0) -> int:
    """Largest measured batch size whose latency quantile fits inside the SLO.

    Latencies between measured batch sizes are interpolated linearly, matching
    the paper's observation that the latency/batch-size relationship is
    roughly linear, so the answer is not limited to the exact sizes measured.
    """
    if slo_ms <= 0:
        raise ValueError("slo_ms must be positive")
    sizes = np.array(profile.batch_sizes, dtype=float)
    if sizes.size == 0:
        return 0
    latencies = np.array(
        [np.percentile(profile.latencies_ms[int(size)], quantile) for size in sizes]
    )
    order = np.argsort(sizes)
    sizes, latencies = sizes[order], latencies[order]
    if latencies[0] > slo_ms:
        return 0
    best = int(sizes[0])
    for i in range(1, len(sizes)):
        if latencies[i] <= slo_ms:
            best = int(sizes[i])
            continue
        # Interpolate between the last passing size and this failing one.
        prev_size, prev_lat = sizes[i - 1], latencies[i - 1]
        if latencies[i] > prev_lat:
            fraction = (slo_ms - prev_lat) / (latencies[i] - prev_lat)
            best = max(best, int(prev_size + fraction * (sizes[i] - prev_size)))
        break
    return max(best, 1)

