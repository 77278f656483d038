"""Request-scoped tracing for the serving hot path.

Every query may carry a :class:`TraceContext` that accumulates *spans* —
``(name, start, end, meta)`` tuples stamped with ``clock.now()`` — for
each stage it crosses: frontend validation, selection, cache lookup, queue
wait, batch assembly, the RPC send/wait/recv legs, container evaluation and
the straggler/deadline path.  The design splits queries into three modes so
the common case stays near-free:

``sampled``
    Head-sampled at ``1 / SAMPLE_EVERY`` (1/256), or forced by a
    caller-supplied trace id (the ``X-Clipper-Trace-Id`` request header).
    The engine records full per-stage spans, feeds the per-stage latency
    histograms, and always commits the trace.
``shadow``
    Every other query that *leaves the cache-hit path* and turns out
    interesting — SLO miss, default-output fallback, straggler, retried
    batch or container error.  Nothing rides
    along with an unsampled miss: the dispatcher hands each entry of an
    answered batch one reference to the batch's shared :class:`BatchSpans`
    (a failed batch gives an entry a context of its own, with the retry in
    it), and only when the query finishes interesting does the engine build
    a shadow context from those (:meth:`Tracer.shadow`) and commit it.  A
    straggler's batch still out then stamps its late spans on the committed
    context.  This is the tail-based capture that keeps the interesting
    0.1% without paying for the boring 99.9%: no query allocates a context
    unless it is sampled or interesting.
``off``
    Tracing disabled: :meth:`Tracer.begin` returns ``None`` after a single
    attribute check, and every instrumentation point is one branch on that
    ``None`` — the same discipline as the construction-time metric handles.

Tracing is one switch, :attr:`~repro.core.config.ClipperConfig.tracing`.
Committed traces land in a per-component ring buffer of ``RING_CAPACITY``
traces inside the process-wide :class:`TraceRegistry`, which joins them into
span *trees* (nesting by interval containment) for ``GET /api/v1/trace/<id>``
and lists recent / slow traces for ``GET /api/v1/traces``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core import clock
from repro.core.metrics import MetricsRegistry

#: Head-sampling period: one query in every ``SAMPLE_EVERY`` carries a fully
#: spanned, always-committed trace.
SAMPLE_EVERY = 256
#: Committed traces retained per component ring buffer.
RING_CAPACITY = 512


# Tail-capture trigger flags.  A shadow trace whose flags are non-zero at
# finish is committed; a zero-flag one is dropped.
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
    meta)`` tuples in ``clock.now()`` seconds; hot-path writers append
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

    The dispatcher hands this one object to each entry without a context
    instead of five tuples of its own; :meth:`Tracer.shadow` expands it only
    for a query that turns out interesting.
    """

    formed: float  #: when the batch was formed: where its ``queue.wait`` ends
    common: List[tuple]  #: the spans its entries share

    def spans_of(self, item: Any) -> List[tuple]:
        """The batch's spans as the queue entry ``item`` saw them."""
        return [("queue.wait", item.enqueue_time, self.formed, None), *self.common]


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
        self.wall_time = clock.wall()

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
    touches the registry at all, so the lock cost is paid only by the
    sampled/interesting minority.
    """

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
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

    def recent(self, slow: bool = False, limit: int = 50) -> List[Dict[str, Any]]:
        """Summaries of recently committed traces, newest first.

        ``slow=True`` restricts the listing to traces flagged with an SLO
        miss (the ``?slow=1`` query of ``GET /api/v1/traces``).
        """
        with self._lock:
            records = [
                record for ring in self._rings.values() for record in ring.slots
                if record is not None
            ]
        if slow:
            records = [r for r in records if r.flags & TRACE_SLO_MISS]
        records.sort(key=lambda r: r.end, reverse=True)
        return [record.summary() for record in records[: max(0, limit)]]


class Tracer:
    """Per-engine trace factory implementing the three-mode sampling policy.

    ``enabled`` is :attr:`ClipperConfig.tracing`.  With ``metrics``,
    committed *sampled* traces feed per-stage
    latency histograms (``predict.stage_ms{stage=...}``) through a
    pre-resolved metric family — the stage names are hashed once, not per
    query.  Query traces land in the ``engine`` component's ring.
    """

    def __init__(
        self, enabled: bool = True, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self._enabled = enabled
        self.registry = TraceRegistry()
        self._tick = 0
        self._stage_family = (
            metrics.histogram_family("predict.stage_ms", label="stage")
            if metrics is not None
            else None
        )

    @property
    def active(self) -> bool:
        """Whether any query may carry a trace context (one-branch check)."""
        return self._enabled

    def begin(
        self, trace_id: Optional[str] = None, start: Optional[float] = None
    ) -> Optional[TraceContext]:
        """Start a *sampled* trace for one query; None when head sampling
        passes the query over.

        A caller-supplied ``trace_id`` (the HTTP trace header) forces
        sampling.  ``start`` lets the caller reuse an existing ``clock.now()``
        stamp instead of paying another clock read.  Unsampled queries get
        ``None`` here — the cache-hit fast path pays only this call — and a
        :meth:`shadow` context only if they turn out interesting.
        """
        if not self._enabled:
            return None
        self._tick = tick = self._tick + 1
        if trace_id is None:
            if tick % SAMPLE_EVERY:
                return None
            trace_id = next(_TRACE_IDS)
        if start is None:
            start = clock.now()
        return TraceContext(trace_id, True, start)

    def shadow(self, start: float, entries: Iterable[Any] = ()) -> TraceContext:
        """A shadow (tail-capture) context for an unsampled query, holding
        what the dispatcher stamped on its queue ``entries``.

        Each entry's :class:`BatchSpans` is expanded, and a context of its
        own (a failed batch's retry) is folded in, flags and spans.  Each
        entry then points at the new context, so a batch still out stamps
        its late spans there.  No trace id is allocated here: :meth:`finish`
        assigns one when the trace commits.
        """
        ctx = TraceContext(None, False, start)
        spans = ctx.spans
        for item in entries:
            stamped = item.trace
            if type(stamped) is BatchSpans:
                spans += stamped.spans_of(item)
            elif stamped is not None:
                ctx.flags |= stamped.flags
                spans += stamped.spans
            item.trace = ctx
        return ctx

    def finish(
        self,
        ctx: TraceContext,
        slo_missed: bool = False,
        default_used: bool = False,
        error: bool = False,
        query_id: Optional[int] = None,
    ) -> Optional[str]:
        """Close a trace: commit it, returning its string id, or drop it.

        Sampled traces always commit; shadow traces commit only when their
        flags say the query was interesting (None is returned otherwise).
        """
        flags = ctx.flags
        if slo_missed:
            flags |= TRACE_SLO_MISS
        if default_used:
            flags |= TRACE_DEFAULT_USED
        if error:
            flags |= TRACE_ERROR
        if not flags and not ctx.sampled:
            return None
        raw_id = ctx.trace_id
        if raw_id is None:
            # A shadow owns an id only once it commits; a late batch's spans
            # are then stamped on it directly.
            raw_id = ctx.trace_id = next(_TRACE_IDS)
        trace_id = format_trace_id(raw_id)
        record = TraceRecord(
            trace_id=trace_id,
            component="engine",
            start=ctx.start,
            end=clock.now(),
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
        # The record shares the context's span list: late span appends (a
        # straggler's RPC legs) still reach the record.
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
        now = clock.now()
        trace_id = format_trace_id(next(_TRACE_IDS))
        record = TraceRecord(
            trace_id=trace_id,
            component=component or "engine",
            start=now,
            end=now,
            flags=flags,
            spans=[(name, now, now, meta)],
            sampled=False,
        )
        self.registry.commit(record)
        return trace_id
