"""Lightweight metrics registry used throughout the serving stack.

Clipper reports throughput and latency distributions (mean, P99) for every
experiment in the paper.  This module provides the metric primitives
needed to regenerate those numbers — :class:`Counter`, :class:`Histogram`
(lifetime bucket counts and sum over the bounds it is registered with, plus
a window of recent observations for quantile queries) and :class:`Gauge`
(point-in-time values such as queue saturation) — plus a
:class:`MetricsRegistry` that names and aggregates them.  A rate is the
reader's derivative of a counter (Prometheus' ``rate()`` over ``_total``),
so none is kept here.  Every instrument of the serving system is built in
this module and registered by name.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

#: Latency bucket upper bounds in milliseconds — spans the sub-ms in-process
#: hot path through the HTTP edge and slow containers.  An observation counts
#: in the first bucket whose bound is not below it, or past the last.
DEFAULT_BUCKETS_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                      250.0, 500.0, 1000.0, 2500.0, 5000.0)
#: Batch-size bucket upper bounds: the powers of two up to the largest batch.
BATCH_SIZE_BUCKETS = tuple(2**k for k in range(13))

#: How many recent observations a histogram keeps for its quantiles (read
#: when one is built).
WINDOW_SIZE = 16384


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


class Histogram:
    """Lifetime bucket counts and sum, and a window for quantile queries.

    Every observation adds one to its bucket of ``bounds`` (the last bucket:
    past every bound) and its value to the sum, for the histogram's lifetime.
    The lifetime number of observations is the :class:`Counter` ``counted``
    (its own, or one registered beside it: see :class:`AnsweredMetrics`); the
    window keeps only the most recent :data:`WINDOW_SIZE`, for the quantiles.
    """

    def __init__(
        self,
        name: str,
        lock: Optional[threading.Lock] = None,
        counted: Optional[Counter] = None,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS_MS,
    ) -> None:
        self.name = name
        self.bounds = bounds
        self._window: Deque[float] = deque(maxlen=WINDOW_SIZE)
        self._buckets = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._lock = lock or threading.Lock()
        self.counted = counted or Counter(name, self._lock)

    def observe(self, value: float) -> None:
        """Record one observation.  NaN values are rejected (dropped)."""
        value = float(value)
        if value != value:  # NaN check without a math.isnan call
            return
        with self._lock:
            self._window.append(value)
            self._buckets[bisect_left(self.bounds, value)] += 1
            self._sum += value
            self.counted._value += 1

    @property
    def count(self) -> int:
        return self.counted._value

    def lifetime(self) -> Tuple[List[int], float, int]:
        """Per-bucket counts (not cumulative), sum and count, read at once."""
        with self._lock:
            return list(self._buckets), self._sum, self.counted._value

    def values(self) -> List[float]:
        with self._lock:
            return list(self._window)

    def summary(self) -> Dict[str, float]:
        """``count`` and, once observed, ``mean``/``p50``/``p95``/``p99``/``max``
        of the window, read once: the values the methods below give."""
        with self._lock:
            count, values = self.counted._value, list(self._window)
        if not values:
            return {"count": float(count)}
        window = np.asarray(values)
        p50, p95, p99 = np.percentile(window, (50, 95, 99)).tolist()
        return {
            "count": float(count), "mean": float(window.mean()),
            "p50": p50, "p95": p95, "p99": p99, "max": float(window.max()),
        }

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


#: Metric-name prefix for per-arm traffic attribution.
ARM_METRIC_PREFIX = "routing.arm"


class ArmMetrics:
    """Cached metric handles attributing traffic to one serving arm.

    The routing layer resolves one of these per traffic-split arm when a
    split is installed, so the per-query attribution on the hot path is two
    counter increments and one histogram observation against pre-resolved
    handles — no registry lookups.  The canary controller compares arms by
    what each observed since a :meth:`mark` (:meth:`since`).
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

    def mark(self) -> Tuple[int, int, int]:
        """The arm's lifetime counts now: requests, errors, latency samples."""
        return self.requests.value, self.errors.value, self.latency.count

    def since(self, mark: Tuple[int, int, int]) -> Tuple[int, int, float]:
        """Requests, errors and p99 latency (NaN without a sample) of the
        queries attributed after :meth:`mark` returned ``mark``; the p99 reads
        the window's newest samples, those observed since."""
        requests, errors, samples = mark
        seen = self.latency.count - samples  # read first: the window may grow
        window = self.latency.values()
        fresh = window[max(len(window) - seen, 0) :]
        p99 = float(np.percentile(fresh, 99)) if fresh else float("nan")
        return self.requests.value - requests, self.errors.value - errors, p99


class AnsweredMetrics:
    """``<prefix>.latency_ms`` and ``<prefix>.count`` of answered queries.

    One answered query is one event: one latency sample and one count.  The
    count is the histogram's own :attr:`Histogram.counted`, registered as
    the counter ``<prefix>.count``, and both are built around one lock, so
    :meth:`record` is one acquisition and two stores — the engine pays it on
    every query, and container executor threads share the registry.  Each
    metric's own methods (``values`` ...) take the same lock, so reading one
    never races a :meth:`record`.  The names must not be registered yet: an
    existing metric keeps its own lock.
    """

    __slots__ = ("latency", "count", "_lock")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._lock = lock = threading.Lock()
        count_name, latency_name = f"{prefix}.count", f"{prefix}.latency_ms"
        self.count = registry._register(
            registry._counters, count_name, partial(Counter, count_name, lock)
        )
        self.latency = registry._register(
            registry._histograms,
            latency_name,
            partial(Histogram, latency_name, lock=lock, counted=self.count),
        )

    def record(self, latency_ms: float) -> None:
        """One answered query: a latency sample and a count."""
        latency = self.latency
        with self._lock:
            latency._window.append(latency_ms)
            latency._buckets[bisect_left(latency.bounds, latency_ms)] += 1
            latency._sum += latency_ms
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

    def __init__(self, name: str, label: str, create: Callable[[str], Any]) -> None:
        self.name = name
        self.label = label
        self._children: Dict[str, object] = {}
        self._create = create  # the owning registry's ``counter`` or ``histogram``

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
    histograms: Dict[str, Dict[str, float]]
    gauges: Dict[str, float]


class MetricsRegistry:
    """Named collection of counters, histograms and gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
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

    def histogram(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS_MS) -> Histogram:
        """Return (creating if needed) the histogram with ``name`` on ``bounds``."""
        found = self._histograms.get(name)
        return found or self._register(self._histograms, name, Histogram, name, None, None, bounds)

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

    def _family(self, kind: str, name: str, label: str) -> MetricFamily:
        key = (kind, name, label)
        family = self._families.get(key)
        return family or self._register(
            self._families, key, partial(MetricFamily, name, label, getattr(self, kind))
        )

    def counter_family(self, name: str, label: str = "stage") -> MetricFamily:
        """A ``labels()``-addressed counter family under ``name``."""
        return self._family("counter", name, label)

    def histogram_family(self, name: str, label: str = "stage") -> MetricFamily:
        """A ``labels()``-addressed histogram family under ``name``."""
        return self._family("histogram", name, label)

    def _tables(self) -> tuple:
        return self._counters, self._histograms, self._gauges

    def all_metrics(self):
        """Raw metric objects by kind: ``(counters, {}, histograms, gauges)``.

        The empty second table keeps working the callers that unpack four
        tables (``benchmarks/serving/trace.py``).
        """
        with self._lock:
            counters, histograms, gauges = (dict(table) for table in self._tables())
        return counters, {}, histograms, gauges

    def snapshot(self) -> MetricsSnapshot:
        """Capture the current value of every registered metric."""
        counters, _, histograms, gauges = self.all_metrics()
        return MetricsSnapshot(
            {name: counter.value for name, counter in counters.items()},
            {name: histogram.summary() for name, histogram in histograms.items()},
            {name: gauge.value for name, gauge in gauges.items()},
        )


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

    def histogram(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS_MS) -> Histogram:
        return self._histograms.setdefault(name, self._registry.histogram(name, bounds))

    def gauge(self, name: str, fn=None) -> Gauge:
        return self._gauges.setdefault(name, self._registry.gauge(name, fn))

    def close(self) -> None:
        """Remove from the parent registry every name registered through here."""
        with self._registry._lock:
            for mine, theirs in zip(self._tables(), self._registry._tables()):
                for name in mine:
                    theirs.pop(name, None)
