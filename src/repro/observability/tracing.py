"""Request-scoped tracing for the serving hot path.

Every query may carry a :class:`TraceContext` that accumulates *spans* —
``(name, start, end, meta)`` tuples stamped with ``time.monotonic()`` — for
each stage it crosses: frontend validation, selection, cache lookup, queue
wait, batch assembly, the RPC send/wait/recv legs, container evaluation and
the straggler/deadline path.  The design splits queries into three modes so
the common case stays near-free:

``sampled``
    Head-sampled at ``1 / sample_every`` (default 1/256), or forced by a
    caller-supplied trace id (the ``X-Clipper-Trace-Id`` request header).
    The engine records full per-stage spans, feeds the per-stage latency
    histograms, and always commits the trace.
``shadow``
    Every other query that *leaves the cache-hit path*, while
    ``tail_capture`` is on.  A pooled context is attached lazily at the
    first cache miss and rides along recording only what the slow paths
    stamp (queue wait, RPC legs, deadline misses, retries); on finish it is
    committed only when the query turned out interesting — SLO miss,
    default-output fallback, straggler, retried batch or container error —
    and recycled otherwise.  This is the tail-based capture that keeps the
    interesting 0.1% without paying for the boring 99.9%: pure cache hits
    never allocate a context at all, and boring misses recycle theirs
    without ever owning a trace id.
``off``
    Tracing disabled: :meth:`Tracer.begin` returns ``None`` after a single
    attribute check, and every instrumentation point is one branch on that
    ``None`` — the same discipline as the construction-time metric handles.

Committed traces land in a per-component ring buffer inside the process-wide
:class:`TraceRegistry`, which joins them into span *trees* (nesting by
interval containment) for ``GET /api/v1/trace/<id>`` and lists recent /
slow traces for ``GET /api/v1/traces``.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.metrics import MetricsRegistry

__all__ = [
    "TRACE_SLO_MISS",
    "TRACE_DEFAULT_USED",
    "TRACE_STRAGGLER",
    "TRACE_RETRIED",
    "TRACE_ERROR",
    "TRACE_CANARY",
    "BatchSpans",
    "TraceContext",
    "TraceRecord",
    "TraceRegistry",
    "Tracer",
    "flag_names",
    "format_trace_id",
]

# Tail-capture trigger flags.  A shadow trace whose flags are non-zero at
# finish is committed; a zero-flag shadow trace is recycled.
TRACE_SLO_MISS = 1
TRACE_DEFAULT_USED = 2
TRACE_STRAGGLER = 4
TRACE_RETRIED = 8
TRACE_ERROR = 16
TRACE_CANARY = 32

_FLAG_NAMES = (
    (TRACE_SLO_MISS, "slo_miss"),
    (TRACE_DEFAULT_USED, "default_used"),
    (TRACE_STRAGGLER, "straggler"),
    (TRACE_RETRIED, "retried"),
    (TRACE_ERROR, "error"),
    (TRACE_CANARY, "canary"),
)

#: Process-wide trace id source.  Ids are ints on the hot path (no hex
#: formatting per query) and rendered to strings only when a trace commits
#: or crosses the HTTP edge.
_TRACE_IDS = itertools.count(1)

#: Maximum pooled (recycled) shadow contexts per tracer.
_POOL_LIMIT = 64


def format_trace_id(trace_id: Any) -> str:
    """Render an internal (int) trace id as its wire/string form."""
    if isinstance(trace_id, str):
        return trace_id
    return f"{int(trace_id):016x}"


def flag_names(flags: int) -> List[str]:
    """The human-readable names of the set tail-capture flags."""
    return [name for bit, name in _FLAG_NAMES if flags & bit]


class TraceContext:
    """Mutable per-query span accumulator.

    ``trace_id`` is an int for internally sampled/shadow queries and a string
    when the caller supplied one.  ``spans`` holds ``(name, start, end,
    meta)`` tuples in ``time.monotonic()`` seconds; hot-path writers append
    tuples directly rather than calling :meth:`add` to save a method call.
    """

    __slots__ = ("trace_id", "sampled", "start", "flags", "spans")

    def __init__(self, trace_id: Any, sampled: bool, start: float) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self.start = start
        self.flags = 0
        self.spans: List[Tuple[str, float, float, Optional[dict]]] = []

    def add(
        self, name: str, start: float, end: float, meta: Optional[dict] = None
    ) -> None:
        """Record one completed span."""
        self.spans.append((name, start, end, meta))


class BatchSpans(NamedTuple):
    """The lifecycle spans of one answered batch, shared by the queries in it.

    The dispatcher appends this one object to each uncommitted shadow
    context's span list instead of five tuples of its own;
    :meth:`Tracer.finish` expands it only for a trace that commits.
    """

    items: list  #: the batch's traced queue entries
    formed: float  #: when the batch was formed: where their ``queue.wait`` ends
    common: List[tuple]  #: the spans they all share

    def spans_of(self, ctx: TraceContext) -> List[tuple]:
        """The batch's spans as the query behind ``ctx`` saw them."""
        return [
            span
            for item in self.items
            if item.trace is ctx
            for span in (("queue.wait", item.enqueue_time, self.formed, None), *self.common)
        ]


class TraceRecord:
    """One committed trace: an immutable-ish summary held by the registry."""

    __slots__ = (
        "trace_id",
        "component",
        "start",
        "end",
        "flags",
        "spans",
        "sampled",
        "query_id",
        "wall_time",
    )

    def __init__(
        self,
        trace_id: str,
        component: str,
        start: float,
        end: float,
        flags: int,
        spans: List[Tuple[str, float, float, Optional[dict]]],
        sampled: bool = True,
        query_id: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        self.component = component
        self.start = start
        self.end = end
        self.flags = flags
        self.spans = spans
        self.sampled = sampled
        self.query_id = query_id
        self.wall_time = time.time()

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def summary(self) -> Dict[str, Any]:
        """The listing shape used by ``GET /api/v1/traces``."""
        return {
            "trace_id": self.trace_id,
            "component": self.component,
            "duration_ms": self.duration_ms,
            "flags": flag_names(self.flags),
            "sampled": self.sampled,
            "query_id": self.query_id,
            "num_spans": len(self.spans),
            "captured_at": self.wall_time,
        }

    def to_tree(self) -> Dict[str, Any]:
        """Join the flat span list into a nested trace tree.

        Spans nest by interval containment: a span lies inside another when
        its ``[start, end]`` interval does.  Adjacent stages share boundary
        stamps, so containment checks carry a small epsilon.
        """
        eps = 1e-9
        base = self.start
        root: Dict[str, Any] = {
            "name": "request",
            "start_ms": 0.0,
            "duration_ms": self.duration_ms,
            "children": [],
        }
        # Latecomers (e.g. a straggler's RPC legs landing after commit) may
        # extend past the recorded end; the root absorbs them.
        root_end = max([self.end] + [span[2] for span in self.spans])
        stack: List[Tuple[float, float, Dict[str, Any]]] = [
            (base - eps, root_end + eps, root)
        ]
        ordered = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        for name, s0, s1, meta in ordered:
            node: Dict[str, Any] = {
                "name": name,
                "start_ms": (s0 - base) * 1000.0,
                "duration_ms": (s1 - s0) * 1000.0,
                "children": [],
            }
            if meta:
                node["meta"] = dict(meta)
            while len(stack) > 1 and not (
                s0 >= stack[-1][0] - eps and s1 <= stack[-1][1] + eps
            ):
                stack.pop()
            stack[-1][2]["children"].append(node)
            stack.append((s0, s1, node))
        return {
            "trace_id": self.trace_id,
            "component": self.component,
            "duration_ms": self.duration_ms,
            "flags": flag_names(self.flags),
            "sampled": self.sampled,
            "query_id": self.query_id,
            "captured_at": self.wall_time,
            "root": root,
        }


class _Ring:
    """Fixed-size overwrite-on-wrap slot buffer for one component."""

    __slots__ = ("slots", "next")

    def __init__(self, capacity: int) -> None:
        self.slots: List[Optional[TraceRecord]] = [None] * capacity
        self.next = 0


class TraceRegistry:
    """Per-component ring buffers of committed traces, indexed by trace id.

    Commit and query take a short lock; nothing on the unsampled hot path
    touches the registry at all (uncommitted shadow contexts never reach
    it), so the lock cost is paid only by the sampled/interesting minority.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.capacity = capacity
        self._rings: Dict[str, _Ring] = {}
        self._index: Dict[str, TraceRecord] = {}
        self._lock = threading.Lock()

    def commit(self, record: TraceRecord) -> None:
        """Add one committed trace, evicting the component's oldest if full."""
        with self._lock:
            ring = self._rings.get(record.component)
            if ring is None:
                ring = self._rings[record.component] = _Ring(self.capacity)
            slot = ring.next % self.capacity
            evicted = ring.slots[slot]
            if evicted is not None:
                # Only drop the index entry if it still points at the evicted
                # record (a duplicate id may have overwritten it already).
                if self._index.get(evicted.trace_id) is evicted:
                    del self._index[evicted.trace_id]
            ring.slots[slot] = record
            ring.next += 1
            self._index[record.trace_id] = record

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        """The committed record for one trace id, or None."""
        with self._lock:
            return self._index.get(trace_id)

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The joined span tree of one committed trace, or None."""
        record = self.get(trace_id)
        return record.to_tree() if record is not None else None

    def recent(
        self, slow: bool = False, limit: int = 50, component: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Summaries of recently committed traces, newest first.

        ``slow=True`` restricts the listing to traces flagged with an SLO
        miss (the ``?slow=1`` query of ``GET /api/v1/traces``).
        """
        with self._lock:
            records = [
                record
                for name, ring in self._rings.items()
                if component is None or name == component
                for record in ring.slots
                if record is not None
            ]
        if slow:
            records = [r for r in records if r.flags & TRACE_SLO_MISS]
        records.sort(key=lambda r: r.end, reverse=True)
        return [record.summary() for record in records[: max(0, limit)]]

    def components(self) -> List[str]:
        """Names of the components that have committed traces."""
        with self._lock:
            return sorted(self._rings)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)


class Tracer:
    """Per-engine trace factory implementing the three-mode sampling policy.

    Parameters
    ----------
    config:
        Anything with ``enabled`` / ``sample_every`` / ``tail_capture`` /
        ``ring_capacity`` attributes (normally a
        :class:`repro.core.config.TracingConfig`); ``None`` uses defaults.
    metrics:
        When given, committed *sampled* traces feed per-stage latency
        histograms (``predict.stage_ms{stage=...}``) through a pre-resolved
        metric family — the stage names are hashed once, not per query.
    component:
        Ring-buffer component name committed traces land under.
    registry:
        Share a :class:`TraceRegistry` across tracers; a private one is
        built otherwise.
    """

    def __init__(
        self,
        config: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
        component: str = "engine",
        registry: Optional[TraceRegistry] = None,
    ) -> None:
        self._enabled = bool(getattr(config, "enabled", True))
        self._sample_every = max(1, int(getattr(config, "sample_every", 256)))
        self._tail_capture = bool(getattr(config, "tail_capture", True))
        capacity = int(getattr(config, "ring_capacity", 512))
        self._component = component
        self.registry = registry if registry is not None else TraceRegistry(capacity)
        self._tick = 0
        self._pool: List[TraceContext] = []
        self._stage_family = (
            metrics.histogram_family("predict.stage_ms", label="stage")
            if metrics is not None
            else None
        )

    @property
    def active(self) -> bool:
        """Whether any query may carry a trace context (one-branch check)."""
        return self._enabled

    @property
    def tail_capture(self) -> bool:
        return self._tail_capture

    def begin(
        self, trace_id: Optional[str] = None, start: Optional[float] = None
    ) -> Optional[TraceContext]:
        """Start a *sampled* trace for one query; None when head sampling
        passes the query over.

        A caller-supplied ``trace_id`` (the HTTP trace header) forces
        sampling.  ``start`` lets the caller reuse an existing monotonic
        stamp instead of paying another clock read.  Unsampled queries get
        ``None`` here — the cache-hit fast path pays only this call — and
        pick up a :meth:`shadow` context lazily if they leave the cache and
        enter the dispatch path (the only place tail-capture flags can
        originate).
        """
        if not self._enabled:
            return None
        self._tick = tick = self._tick + 1
        if trace_id is None:
            if tick % self._sample_every:
                return None
            trace_id = next(_TRACE_IDS)
        if start is None:
            start = time.monotonic()
        pool = self._pool
        if pool:
            ctx = pool.pop()
            ctx.trace_id = trace_id
            ctx.sampled = True
            ctx.start = start
            ctx.flags = 0
            return ctx
        return TraceContext(trace_id, True, start)

    def shadow(self, start: float) -> TraceContext:
        """A shadow (tail-capture) context for a query entering the dispatch
        path unsampled.

        No trace id is allocated here — shadow contexts that finish boring
        are recycled without ever owning an id; :meth:`finish` assigns one
        only when the trace commits.
        """
        pool = self._pool
        if pool:
            ctx = pool.pop()
            ctx.trace_id = None
            ctx.sampled = False
            ctx.start = start
            ctx.flags = 0
            return ctx
        return TraceContext(None, False, start)

    def finish(
        self,
        ctx: TraceContext,
        slo_missed: bool = False,
        default_used: bool = False,
        error: bool = False,
        query_id: Optional[int] = None,
    ) -> Optional[str]:
        """Close a trace: commit it (returning its string id) or recycle it.

        Sampled traces always commit; shadow traces commit only when their
        flags say the query was interesting.  Recycled contexts go back to
        the pool, so the boring shadow path allocates nothing steady-state.
        """
        flags = ctx.flags
        if slo_missed:
            flags |= TRACE_SLO_MISS
        if default_used:
            flags |= TRACE_DEFAULT_USED
        if error:
            flags |= TRACE_ERROR
        if not flags and not ctx.sampled:
            ctx.spans.clear()
            pool = self._pool
            if len(pool) < _POOL_LIMIT:
                pool.append(ctx)
            return None
        raw_id = ctx.trace_id
        if raw_id is None:
            # A shadow owns an id only once it commits (a late batch's spans
            # are then stamped on it directly) and only now pays for the
            # batches it rode in.
            raw_id = ctx.trace_id = next(_TRACE_IDS)
            ctx.spans[:] = [
                span
                for entry in ctx.spans
                for span in (entry.spans_of(ctx) if isinstance(entry, BatchSpans) else (entry,))
            ]
        trace_id = format_trace_id(raw_id)
        record = TraceRecord(
            trace_id=trace_id,
            component=self._component,
            start=ctx.start,
            end=time.monotonic(),
            flags=flags,
            spans=ctx.spans,
            sampled=ctx.sampled,
            query_id=query_id,
        )
        self.registry.commit(record)
        if ctx.sampled and self._stage_family is not None:
            labels = self._stage_family.labels
            for name, s0, s1, _meta in ctx.spans:
                labels(name).observe((s1 - s0) * 1000.0)
        # The record owns the spans list now; the context is NOT recycled, so
        # late span appends (a straggler's RPC legs) still reach the record.
        return trace_id

    def capture_event(
        self,
        name: str,
        meta: Optional[dict] = None,
        flags: int = 0,
        component: Optional[str] = None,
    ) -> Optional[str]:
        """Commit a standalone single-span event trace (always captured).

        Used for decisions that have no carrying query — e.g. canary
        auto-aborts — so they are queryable next to request traces.
        """
        if not self._enabled:
            return None
        now = time.monotonic()
        trace_id = format_trace_id(next(_TRACE_IDS))
        record = TraceRecord(
            trace_id=trace_id,
            component=component or self._component,
            start=now,
            end=now,
            flags=flags,
            spans=[(name, now, now, meta)],
            sampled=False,
        )
        self.registry.commit(record)
        return trace_id
