"""Lightweight metrics registry used throughout the serving stack.

Clipper reports throughput and latency distributions (mean, P99) for every
experiment in the paper.  This module provides the metric primitives
needed to regenerate those numbers — :class:`Counter`, :class:`Meter`
(events/second over a window), :class:`Histogram` (reservoir of recent
observations with quantile queries) and :class:`Gauge` (point-in-time
values such as queue saturation) — plus a :class:`MetricsRegistry` that
names and aggregates them.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._value = 0
        self._lock = lock or threading.Lock()

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Meter:
    """Tracks the rate of events per second since creation or last reset."""

    def __init__(
        self, name: str, clock=time.monotonic, lock: Optional[threading.Lock] = None
    ) -> None:
        self.name = name
        self._clock = clock
        self._count = 0
        self._start = clock()
        self._lock = lock or threading.Lock()

    def mark(self, count: int = 1) -> None:
        """Record ``count`` events."""
        with self._lock:
            self._count += count

    @property
    def count(self) -> int:
        return self._count

    def rate(self) -> float:
        """Mean events per second since the meter was created or reset."""
        elapsed = self._clock() - self._start
        if elapsed <= 0:
            return 0.0
        return self._count / elapsed

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._start = self._clock()


class Histogram:
    """Sliding-window reservoir of observations supporting quantile queries."""

    def __init__(
        self, name: str, window_size: int = 16384, lock: Optional[threading.Lock] = None
    ) -> None:
        self.name = name
        self._window: Deque[float] = deque(maxlen=window_size)
        self._lock = lock or threading.Lock()
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation.  NaN values are rejected (dropped)."""
        value = float(value)
        if value != value:  # NaN check without a math.isnan call
            return
        with self._lock:
            self._window.append(value)
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def values(self) -> List[float]:
        with self._lock:
            return list(self._window)

    def mean(self) -> float:
        values = self.values()
        if not values:
            return float("nan")
        return float(np.mean(values))

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0-100) of the windowed observations."""
        values = self.values()
        if not values:
            return float("nan")
        return float(np.percentile(values, q))

    def p50(self) -> float:
        return self.percentile(50)

    def p95(self) -> float:
        return self.percentile(95)

    def p99(self) -> float:
        return self.percentile(99)

    def max(self) -> float:
        values = self.values()
        return max(values) if values else float("nan")

    def reset(self) -> None:
        with self._lock:
            self._window.clear()
            self._count = 0


class Gauge:
    """A point-in-time value: set explicitly or computed by a callback at read.

    Callback gauges (``fn``) are the cheap way to expose pressure signals —
    queue saturation, admission inflight — without the producer paying
    anything per event: the value is computed only when a scrape or snapshot
    reads it.
    """

    def __init__(self, name: str, fn=None) -> None:
        self.name = name
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value (ignored for callback gauges)."""
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except (ArithmeticError, LookupError, TypeError, ValueError):
                # A ratio over something that emptied, a key that left, a
                # reading that is no number: one bad gauge must not fail the
                # scrape that reads all of them.
                return float("nan")
        return self._value

    def reset(self) -> None:
        self._value = 0.0


#: Metric-name prefix for per-arm traffic attribution.
ARM_METRIC_PREFIX = "routing.arm"


class ArmMetrics:
    """Cached metric handles attributing traffic to one serving arm.

    The routing layer resolves one of these per traffic-split arm when a
    split is installed, so the per-query attribution on the hot path is two
    counter increments and one histogram observation against pre-resolved
    handles — no registry lookups.  The derived readings (:meth:`error_rate`,
    :meth:`p99`) are what the canary controller compares between arms.
    """

    __slots__ = ("requests", "errors", "latency")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self.requests = registry.counter(f"{prefix}.requests")
        self.errors = registry.counter(f"{prefix}.errors")
        self.latency = registry.histogram(f"{prefix}.latency_ms")

    def observe(self, latency_ms: float, ok: bool = True) -> None:
        """Attribute one query served by this arm."""
        self.requests.increment()
        if ok:
            self.latency.observe(latency_ms)
        else:
            self.errors.increment()

    def error_rate(self) -> float:
        """Fraction of attributed queries that failed (0.0 when unobserved)."""
        total = self.requests.value
        if total <= 0:
            return 0.0
        return self.errors.value / total

    def p99(self) -> float:
        """P99 latency of the arm's successful queries (NaN when unobserved)."""
        return self.latency.p99()


class AnsweredMetrics:
    """``<prefix>.latency_ms`` / ``.throughput`` / ``.count`` of answered queries.

    One answered query is one event, so the three are built around one lock
    and :meth:`record` updates them under a single acquisition — the engine
    pays it on every query, and container executor threads share the
    registry.  Each metric's own methods (``reset``, ``values`` ...) take the
    same lock, so reading or resetting one never races a :meth:`record`.  The
    names must not be registered yet: an existing metric keeps its own lock.
    """

    __slots__ = ("latency", "throughput", "count", "_lock")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._lock = lock = threading.Lock()

        def shared(table: dict, kind, suffix: str):
            name = f"{prefix}.{suffix}"
            return registry._register(table, name, partial(kind, name, lock=lock))

        self.latency = shared(registry._histograms, Histogram, "latency_ms")
        self.throughput = shared(registry._meters, Meter, "throughput")
        self.count = shared(registry._counters, Counter, "count")

    def record(self, latency_ms: float) -> None:
        """One answered query: a latency sample, a throughput mark, a count."""
        latency = self.latency
        with self._lock:
            latency._window.append(latency_ms)
            latency._count += 1
            self.throughput._count += 1
            self.count._value += 1


class MetricFamily:
    """Label-addressed bundle of child metrics sharing one base name.

    Extends PR 1's construction-time-handle discipline to labelled metrics:
    ``family.labels("queue_wait")`` hashes the composed child name
    (``base{stage="queue_wait"}``) exactly once and memoises the handle, so
    per-query observations against a stage histogram are a plain dict hit
    plus the observation — never an f-string or registry probe.

    Children are registered in the owning registry under their composed
    name, so they appear in snapshots and the Prometheus exposition like
    any other metric.
    """

    __slots__ = ("name", "label", "_children", "_create")

    def __init__(self, registry: "MetricsRegistry", name: str, label: str, kind: str, **kwargs) -> None:
        self.name = name
        self.label = label
        self._children: Dict[str, object] = {}
        if kind == "counter":
            self._create = registry.counter
        elif kind == "histogram":
            window_size = kwargs.get("window_size", 16384)
            self._create = lambda n: registry.histogram(n, window_size)
        else:
            raise ValueError(f"unknown metric family kind: {kind!r}")

    def labels(self, value: str):
        """The child metric for one label value (created and cached on first use)."""
        child = self._children.get(value)
        if child is not None:
            return child
        child = self._create(f'{self.name}{{{self.label}="{value}"}}')
        self._children[value] = child
        return child


@dataclass
class MetricsSnapshot:
    """Immutable snapshot of every metric in a registry."""

    counters: Dict[str, int]
    meters: Dict[str, float]
    histograms: Dict[str, Dict[str, float]]
    gauges: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Render the snapshot as a human-readable multi-line string."""
        lines = []
        for name, value in sorted(self.counters.items()):
            lines.append(f"counter {name} = {value}")
        for name, rate in sorted(self.meters.items()):
            lines.append(f"meter {name} = {rate:.1f}/s")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"gauge {name} = {value:.3f}")
        for name, stats in sorted(self.histograms.items()):
            rendered = ", ".join(f"{k}={v:.3f}" for k, v in stats.items())
            lines.append(f"histogram {name}: {rendered}")
        return "\n".join(lines)


class MetricsRegistry:
    """Named collection of counters, meters and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._meters: Dict[str, Meter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._families: Dict[tuple, MetricFamily] = {}
        self._lock = threading.Lock()

    # The getters take a lock-free fast path for already-registered names:
    # dict reads are atomic under the GIL, so the lock is only needed to
    # serialise first-time creation and removal.  Hot-path callers should
    # still resolve handles once and reuse them (as ``Clipper`` and
    # ``ReplicaDispatcher`` do) rather than looking up by name per
    # observation; a handle outlives its name's removal harmlessly.  (No
    # metric type defines ``__len__`` or ``__bool__``: ``or`` means "missing".)

    def _register(self, table: dict, name, make, *args):
        with self._lock:
            if name not in table:
                table[name] = make(*args)
            return table[name]

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter with ``name``."""
        counter = self._counters.get(name)
        return counter or self._register(self._counters, name, Counter, name)

    def meter(self, name: str) -> Meter:
        """Return (creating if needed) the meter with ``name``."""
        meter = self._meters.get(name)
        return meter or self._register(self._meters, name, Meter, name)

    def histogram(self, name: str, window_size: int = 16384) -> Histogram:
        """Return (creating if needed) the histogram with ``name``."""
        histogram = self._histograms.get(name)
        return histogram or self._register(
            self._histograms, name, Histogram, name, window_size
        )

    def gauge(self, name: str, fn=None) -> Gauge:
        """Return (creating if needed) the gauge with ``name``.

        ``fn``, when given on first registration, makes this a callback
        gauge whose value is computed at read time.
        """
        gauge = self._gauges.get(name)
        return gauge or self._register(self._gauges, name, Gauge, name, fn)

    def arm(self, model_key: str) -> ArmMetrics:
        """Resolve the request/error/latency handle bundle for one arm."""
        return ArmMetrics(self, f"{ARM_METRIC_PREFIX}.{model_key}")

    def _family(self, kind: str, name: str, label: str, **kwargs) -> MetricFamily:
        key = (kind, name, label)
        family = self._families.get(key)
        return family or self._register(
            self._families, key, partial(MetricFamily, self, name, label, kind, **kwargs)
        )

    def counter_family(self, name: str, label: str = "stage") -> MetricFamily:
        """A ``labels()``-addressed counter family under ``name``."""
        return self._family("counter", name, label)

    def histogram_family(
        self, name: str, label: str = "stage", window_size: int = 16384
    ) -> MetricFamily:
        """A ``labels()``-addressed histogram family under ``name``."""
        return self._family("histogram", name, label, window_size=window_size)

    def _tables(self) -> tuple:
        return self._counters, self._meters, self._histograms, self._gauges

    def all_metrics(self):
        """Raw metric objects by kind (counters, meters, histograms, gauges)."""
        with self._lock:
            return tuple(dict(table) for table in self._tables())

    def snapshot(self) -> MetricsSnapshot:
        """Capture the current value of every registered metric."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            meters = {n: m.rate() for n, m in self._meters.items()}
            histograms = {}
            for name, hist in self._histograms.items():
                if hist.count == 0:
                    histograms[name] = {"count": 0.0}
                else:
                    histograms[name] = {
                        "count": float(hist.count),
                        "mean": hist.mean(),
                        "p50": hist.p50(),
                        "p95": hist.p95(),
                        "p99": hist.p99(),
                        "max": hist.max(),
                    }
            gauges = {n: g.value for n, g in self._gauges.items()}
        return MetricsSnapshot(
            counters=counters, meters=meters, histograms=histograms, gauges=gauges
        )

    def reset(self) -> None:
        """Reset every metric in place (names are preserved)."""
        with self._lock:
            for table in self._tables():
                for metric in table.values():
                    metric.reset()


class MetricScope(MetricsRegistry):
    """The metrics one owner (a deployed model version) registered.

    Each getter registers in — or fetches from — the parent registry and
    remembers the name here (families included), so :meth:`close` removes
    exactly what the owner added.  Read like a registry, it is the owner's
    metrics alone.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        super().__init__()
        self._registry = registry

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, self._registry.counter(name))

    def meter(self, name: str) -> Meter:
        return self._meters.setdefault(name, self._registry.meter(name))

    def histogram(self, name: str, window_size: int = 16384) -> Histogram:
        return self._histograms.setdefault(
            name, self._registry.histogram(name, window_size)
        )

    def gauge(self, name: str, fn=None) -> Gauge:
        return self._gauges.setdefault(name, self._registry.gauge(name, fn))

    def close(self) -> None:
        """Remove from the parent registry every name registered through here."""
        with self._registry._lock:
            for mine, theirs in zip(self._tables(), self._registry._tables()):
                for name in mine:
                    theirs.pop(name, None)


def summarize_latencies(latencies_ms: Iterable[float]) -> Dict[str, float]:
    """Summary statistics (mean/p50/p95/p99/max) for a latency sample in ms."""
    values = np.asarray(list(latencies_ms), dtype=float)
    if values.size == 0:
        nan = float("nan")
        return {"count": 0, "mean": nan, "p50": nan, "p95": nan, "p99": nan, "max": nan}
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "p99": float(np.percentile(values, 99)),
        "max": float(values.max()),
    }


def throughput_qps(num_queries: int, elapsed_seconds: float) -> float:
    """Queries per second, guarding against a zero-length interval."""
    if elapsed_seconds <= 0:
        return 0.0 if num_queries == 0 else math.inf
    return num_queries / elapsed_seconds
