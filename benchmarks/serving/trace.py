"""The traced run: spans around each layer's calls, and the per-layer ledger.

Nothing under ``src/`` is edited.  :func:`install` rebinds the callables at
each layer boundary — where the name is *bound*, since several modules do
``from ... import serialize_buffers`` — to wrappers that record a span, and
returns the patches, whose ``undo()`` puts the originals back.  Every wrapped
name is public
except three: the HTTP edge has no public per-request callable, so
``HttpApiServer._read_request`` / ``_dispatch`` / ``_write_response`` are
wrapped as the request's framing spans.

What a span measures
--------------------
All load runs on one event-loop thread, where 32 requests may be in flight at
once, so wall-clock span lengths overlap and cannot be added up.  A span
therefore also records its **busy** time: the time the thread actually spent
inside it.  A synchronous call is busy from entry to return.  A coroutine is
driven step by step (each ``send`` until it next suspends is one step), and
only its steps count.  Steps of different spans never overlap on one thread;
nested spans stack, and a span's **self** time is its busy time minus the busy
time of the spans nested in its steps.  Self times therefore partition the
thread's time exactly, which is what lets the ledger sum to wall time.

Two more spans close the partition: every event-loop callback runs inside a
``loop.callback`` span (its self time is the loop machinery and any program
code no span covers), and every selector poll is a ``loop.select`` span (the
thread waiting for I/O or a timer).  ``asyncio`` exposes neither publicly:
``Handle._run`` and the loop's selector are wrapped for the traced run only.

Model containers evaluate in executor threads, off the loop; their spans are
kept apart (``containers.*``) and never enter the loop's partition.

The first ``RAW_SPANS`` spans are also kept whole — ``(name, start, end,
parent, id, busy, self)`` in a preallocated list — and written with the
aggregates to ``out/trace_<workload>.json`` when the run ends.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.api.columnar
import repro.api.http
import repro.client.client
import repro.rpc.transport
from repro.api.http import HttpApiServer
from repro.api.routes import RouteTable
from repro.api.schema import ApplicationSchema
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue
from repro.cache.prediction_cache import PredictionCache
from repro.client.client import AsyncClipperClient, PredictionResult
from repro.cluster.remote import RemoteReplica
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.frontend import QueryFrontend
from repro.core.types import Feedback, Query
from repro.rpc.client import RpcClient
from repro.rpc.protocol import MessageType
from repro.rpc.serialization import serialized_nbytes
from repro.rpc.server import ContainerRpcServer
from repro.rpc.transport import TcpTransport
from repro.selection.manager import SelectionStateManager

from benchmarks.serving import harness
from benchmarks.serving.containers import SleepContainer
from benchmarks.serving.workloads import OUT_DIR

RAW_SPANS = 50_000

_now = time.perf_counter_ns

# Frame layout on the span stack: busy time of nested spans during the
# current step, and this span's slot in the raw list (-1: not kept).
_CHILD, _RAW = 0, 1
# Aggregate layout per span name.
_COUNT, _WALL, _BUSY, _SELF = 0, 1, 2, 3

#: per-layer metric -> span names whose self time it sums (µs per query).
SELF_TIME_ROWS: Dict[str, Tuple[str, ...]] = {
    "loadgen.self_us": ("loadgen.prepare", "loadgen.fire"),
    "client.encode_us": ("client.encode_input", "client.json_dumps", "client.serialize"),
    "client.decode_us": ("client.json_loads", "client.deserialize", "client.result"),
    "client.framing_us": ("client.predict",),
    "api.framing_us": ("api.read_request", "api.dispatch", "api.route", "api.write_response"),
    "api.codec_us": (
        "api.json_loads", "api.json_dumps", "api.json_safe",
        "api.decode_columnar", "api.encode_columnar",
    ),
    "api.validate_us": ("api.decode_wire_input", "api.validate_input"),
    "core.frontend_us": ("core.frontend",),
    "core.predict_self_us": ("core.predict",),
    "core.feedback_self_us": ("core.feedback",),
    "core.hash_us": ("core.hash",),
    "selection.select_us": ("selection.select",),
    "selection.combine_us": ("selection.combine",),
    "selection.observe_us": ("selection.observe", "selection.put_state"),
    "cache.fetch_us": ("cache.fetch",),
    "cache.put_us": ("cache.put",),
    "batching.queue_self_us": ("batching.put", "batching.get_batch"),
    "batching.dispatch_self_us": ("batching.dispatch",),
    "rpc.encode_us": ("rpc.serialize.request",),
    "rpc.decode_us": ("rpc.deserialize.response",),
    "rpc.transport_us": ("rpc.predict", "rpc.send.client", "rpc.recv.client"),
    "rpc.server_us": (
        "rpc.serve", "rpc.deserialize.request", "rpc.serialize.response",
        "rpc.send.server", "rpc.recv.server", "rpc.serialize.other",
        "rpc.deserialize.other",
    ),
    "cluster.remote_self_us": ("cluster.remote",),
    "loop.callbacks_us": ("loop.callback",),
}

#: Every per-layer metric, in report order: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (name, "us", "lower") for name in SELF_TIME_ROWS
) + (
    ("selection.state_writes", "1/query", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "1/query", "lower"),
    ("batching.queue_wait_p50_ms", "ms", "lower"),
    ("batching.queue_wait_p99_ms", "ms", "lower"),
    ("batching.batch_size_mean", "count", "higher"),
    ("batching.batches", "1/s", "lower"),
    ("rpc.bytes_per_query", "B", "lower"),
    ("rpc.roundtrip_ms", "ms", "lower"),
    ("containers.eval_ms", "ms", "lower"),
    ("containers.compute_ms", "ms", "lower"),
    ("containers.busy_share", "ratio", "lower"),
    ("loop.idle_share", "ratio", "higher"),
    ("unattributed_share", "ratio", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
    ("traced_qps", "1/s", "higher"),
)


class Recorder:
    """Span stack, per-name aggregates and the raw-span list of one traced run."""

    def __init__(self, capacity: int = RAW_SPANS) -> None:
        self.stack: List[list] = []
        self.slots: Dict[str, List[int]] = {}
        self.raw: List[Optional[tuple]] = [None] * capacity
        self.raw_used = 0
        # Raw spans are kept from reset() on, so none straddles it.
        self.keeping = False
        # Kept outside the loop thread's partition; executor threads write it.
        self.offloop_lock = threading.Lock()
        self.offloop: Dict[str, List[int]] = {}
        # Measurements the span times alone do not give.
        self.put_at: Dict[int, int] = {}
        self.queue_wait_ns: List[int] = []
        self.oldest_wait_ns: List[int] = []
        self.batch_sizes: List[int] = []
        self.rpc_bytes = 0
        self.container_reported_ms: List[float] = []
        self.state_writes = 0

    def slot(self, name: str) -> List[int]:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = [0, 0, 0, 0]
        return slot

    def reset(self) -> None:
        """Forget everything measured so far (set-up and its warm-up)."""
        for slot in self.slots.values():
            slot[:] = [0, 0, 0, 0]
        self.keeping = True
        with self.offloop_lock:
            self.offloop.clear()
        self.put_at.clear()
        del self.queue_wait_ns[:], self.oldest_wait_ns[:], self.batch_sizes[:]
        del self.container_reported_ms[:]
        self.rpc_bytes = 0
        self.state_writes = 0

    # -- raw spans ---------------------------------------------------------------

    def _open(self) -> int:
        index = self.raw_used
        if not self.keeping or index >= len(self.raw):
            return -1
        self.raw_used = index + 1
        return index

    def _parent(self) -> int:
        for frame in reversed(self.stack):
            if frame[_RAW] >= 0:
                return frame[_RAW]
        return -1

    # -- wrappers ----------------------------------------------------------------

    def sync(
        self,
        name: str,
        fn: Callable,
        classify: Optional[Callable[[tuple, Any], str]] = None,
        observe: Optional[Callable[[tuple, Any, int, int], None]] = None,
        keep_raw: bool = True,
    ) -> Callable:
        """Wrap a plain callable as one single-step span.

        ``classify(args, result)`` may refine the name once the call has
        returned; ``observe(args, result, t0, t1)`` sees every call.
        """
        stack, slot_of = self.stack, self.slot
        fixed = self.slot(name) if classify is None else None

        def wrapper(*args, **kwargs):
            frame = [0, -1]
            parent = -1
            if keep_raw:
                parent = self._parent()
                frame[_RAW] = self._open()
            stack.append(frame)
            result = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                stack.pop()
                busy = t1 - t0
                if stack:
                    stack[-1][_CHILD] += busy
                label = name
                if classify is None:
                    slot = fixed
                else:
                    label = f"{name}.{classify(args, result)}"
                    slot = slot_of(label)
                slot[_COUNT] += 1
                slot[_WALL] += busy
                slot[_BUSY] += busy
                slot[_SELF] += busy - frame[_CHILD]
                if frame[_RAW] >= 0:
                    self.raw[frame[_RAW]] = (
                        label, t0, t1, parent, frame[_RAW], busy, busy - frame[_CHILD]
                    )
                if observe is not None:
                    observe(args, result, t0, t1)

        return wrapper

    def coroutine(
        self,
        name: str,
        fn: Callable,
        classify: Optional[Callable[[tuple], str]] = None,
        observe: Optional[Callable[[tuple, Any, int, int], None]] = None,
    ) -> Callable:
        """Wrap a coroutine function as a span whose steps are timed one by one.

        ``classify(args)`` refines the name before the first step.
        """
        recorder = self

        async def wrapper(*args, **kwargs):
            label = name if classify is None else f"{name}.{classify(args)}"
            return await _Steps(
                recorder, label, fn(*args, **kwargs), args, observe
            )

        return wrapper

    def offloop_call(self, name: str, fn: Callable) -> Callable:
        """Wrap a callable that runs in executor threads (model containers)."""

        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - t0
                with self.offloop_lock:
                    slot = self.offloop.setdefault(name, [0, 0])
                    slot[0] += 1
                    slot[1] += elapsed

        return wrapper


class _Steps:
    """Awaitable that drives a coroutine and charges each step to its span."""

    __slots__ = ("recorder", "label", "inner", "args", "observe")

    def __init__(self, recorder, label, inner, args, observe) -> None:
        self.recorder = recorder
        self.label = label
        self.inner = inner
        self.args = args
        self.observe = observe

    def __await__(self):
        recorder = self.recorder
        stack, slot = recorder.stack, recorder.slot(self.label)
        inner = self.inner
        frame = [0, -1]
        parent = recorder._parent()
        frame[_RAW] = recorder._open()
        busy_total = self_total = 0
        started = _now()
        value, error, result, finished = None, None, None, False
        while True:
            frame[_CHILD] = 0
            stack.append(frame)
            t0 = _now()
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                result, finished = stop.value, True
            except BaseException:
                finished = True
                raise
            finally:
                busy = _now() - t0
                stack.pop()
                if stack:
                    stack[-1][_CHILD] += busy
                own = busy - frame[_CHILD]
                slot[_BUSY] += busy
                slot[_SELF] += own
                busy_total += busy
                self_total += own
                if finished:
                    ended = _now()
                    slot[_COUNT] += 1
                    slot[_WALL] += ended - started
                    if frame[_RAW] >= 0:
                        recorder.raw[frame[_RAW]] = (
                            self.label, started, ended, parent, frame[_RAW],
                            busy_total, self_total,
                        )
            if finished:
                if self.observe is not None:
                    self.observe(self.args, result, started, ended)
                return result
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as thrown:
                value, error = None, thrown


# -- what gets wrapped -----------------------------------------------------------


def _message_kind(payload: Any) -> str:
    kind = payload.get("type") if isinstance(payload, dict) else None
    if kind == MessageType.PREDICT:
        return "request"
    if kind == MessageType.PREDICT_RESPONSE:
        return "response"
    return "other"


class _Patches:
    """Rebinds names and remembers how to put them back."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # The raw ``__dict__`` entry, so that a staticmethod or classmethod is
        # restored as one; absent when ``owner`` is an instance shadowing a
        # method of its class.
        self._undo.append((owner, attr, owner.__dict__.get(attr, self._ABSENT)))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        self.set(owner, attr, make(owner.__dict__[attr]))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def install(recorder: Recorder, workload: Any) -> _Patches:
    """Wrap every layer boundary; call before the traced instance is set up.

    Returns the patches; their ``undo()`` restores every name.
    """
    r, p = recorder, _Patches()

    def sync(owner, attr, name, **kw):
        p.wrap(owner, attr, lambda fn: r.sync(name, fn, **kw))

    def coro(owner, attr, name, **kw):
        p.wrap(owner, attr, lambda fn: r.coroutine(name, fn, **kw))

    # load generator (the benchmark's own per-request work)
    p.set(workload, "prepare", r.sync("loadgen.prepare", workload.prepare))
    p.set(workload, "fire", r.coroutine("loadgen.fire", workload.fire))
    sync(harness, "reference_speed", "loadgen.calibrate", keep_raw=False)

    # client SDK
    client = repro.client.client
    coro(AsyncClipperClient, "predict", "client.predict")
    sync(client, "encode_input", "client.encode_input")
    sync(client, "encode_binary_input", "client.encode_input")
    sync(client, "serialize_buffers", "client.serialize")
    sync(client, "deserialize", "client.deserialize")
    p.set(
        client, "json",
        types.SimpleNamespace(
            dumps=r.sync("client.json_dumps", client.json.dumps),
            loads=r.sync("client.json_loads", client.json.loads),
        ),
    )
    p.set(
        PredictionResult, "from_payload",
        classmethod(r.sync("client.result", PredictionResult.from_payload.__func__)),
    )

    # api: the HTTP edge, its codecs and the schema
    http = repro.api.http
    coro(HttpApiServer, "_read_request", "api.read_request")
    coro(HttpApiServer, "_dispatch", "api.dispatch")
    coro(HttpApiServer, "_write_response", "api.write_response")
    coro(RouteTable, "dispatch", "api.route")
    p.set(
        http, "json",
        types.SimpleNamespace(
            dumps=r.sync("api.json_dumps", http.json.dumps),
            loads=r.sync("api.json_loads", http.json.loads),
        ),
    )
    sync(http, "json_safe", "api.json_safe")
    sync(repro.api.columnar, "encode_columnar", "api.encode_columnar")
    sync(repro.api.columnar, "decode_columnar", "api.decode_columnar")
    sync(ApplicationSchema, "decode_wire_input", "api.decode_wire_input")
    sync(ApplicationSchema, "validate_input", "api.validate_input")

    # core
    coro(QueryFrontend, "predict", "core.frontend")
    coro(Clipper, "predict", "core.predict")
    coro(Clipper, "feedback", "core.feedback")
    sync(Query, "input_hash", "core.hash")
    sync(Feedback, "input_hash", "core.hash")

    # selection
    sync(SelectionStateManager, "select_with_state", "selection.select")
    sync(SelectionStateManager, "combine", "selection.combine")
    sync(SelectionStateManager, "observe", "selection.observe")

    def count_state_write(args, result, t0, t1):
        r.state_writes += 1

    sync(SelectionStateManager, "put_state", "selection.put_state", observe=count_state_write)

    # cache
    sync(PredictionCache, "fetch_by_hash", "cache.fetch")
    sync(PredictionCache, "put_by_hash", "cache.put")

    # batching: remember when each item was queued, to time its wait
    def queued(args, result, t0, t1):
        r.put_at[id(args[1])] = t1

    def dispatched(args, result, t0, t1):
        # An item waits from its put until its batch is handed to the
        # replica, which includes the dispatcher's wait for a pipeline slot
        # after get_batch returned.  The program's own queue_wait histogram
        # keeps the oldest item's wait per batch; so does the cross-check.
        batch = args[1]
        r.batch_sizes.append(len(batch))
        waits = [t0 - r.put_at.pop(id(item), t0) for item in batch]
        r.queue_wait_ns.extend(waits)
        r.oldest_wait_ns.append(max(waits))

    coro(BatchingQueue, "put", "batching.put", observe=queued)
    sync(BatchingQueue, "put_nowait", "batching.put", observe=queued)
    coro(BatchingQueue, "get_batch", "batching.get_batch")
    coro(ReplicaDispatcher, "dispatch_batch", "batching.dispatch", observe=dispatched)

    # rpc: client, codec (both ends when the container is in-process), transport
    def rpc_answered(args, response, t0, t1):
        if response is not None:
            r.container_reported_ms.append(response.container_latency_ms)

    coro(RpcClient, "predict", "rpc.predict", observe=rpc_answered)
    transport = repro.rpc.transport

    # Bytes are counted at the client end only (request out, response in), so
    # that an in-process container and one in a worker process compare.
    def encoded(args, segments, t0, t1):
        if segments is not None and _message_kind(args[0]) == "request":
            r.rpc_bytes += serialized_nbytes(segments)

    def decoded(args, payload, t0, t1):
        if _message_kind(payload) == "response":
            r.rpc_bytes += len(args[0])

    sync(
        transport, "serialize_buffers", "rpc.serialize",
        classify=lambda args, result: _message_kind(args[0]), observe=encoded,
    )
    sync(
        transport, "deserialize", "rpc.deserialize",
        classify=lambda args, result: _message_kind(result), observe=decoded,
    )

    def connected_as_client(fn):
        async def connect(host, port):
            endpoint = await fn(host, port)
            endpoint.bench_side = "client"
            return endpoint

        return staticmethod(connect)

    p.set(TcpTransport, "connect", connected_as_client(TcpTransport.connect))

    def side(args):
        return getattr(args[0], "bench_side", "server")

    coro(TcpTransport, "send", "rpc.send", classify=side)
    coro(TcpTransport, "recv", "rpc.recv", classify=side)
    coro(ContainerRpcServer, "serve_forever", "rpc.serve")

    # containers (executor threads) and the cluster seam
    for container in (NoOpContainer, SleepContainer):
        p.wrap(container, "predict_batch", lambda fn: r.offloop_call("containers.compute", fn))
    coro(RemoteReplica, "predict_batch", "cluster.remote")

    # the event loop itself
    p.wrap(
        asyncio.events.Handle, "_run",
        lambda fn: r.sync("loop.callback", fn, keep_raw=False),
    )
    selector = asyncio.get_running_loop()._selector
    p.set(selector, "select", r.sync("loop.select", selector.select, keep_raw=False))
    return p


# -- the ledger --------------------------------------------------------------------


def _ms(ns_values: List[int], q: float) -> float:
    return float(np.percentile(ns_values, q)) / 1e6 if ns_values else 0.0


def calibrate_seconds(recorder: Recorder) -> float:
    """Time the traced interval spent in the harness's reference bursts."""
    return recorder.slots.get("loadgen.calibrate", [0, 0, 0, 0])[_BUSY] / 1e9


def ledger(
    recorder: Recorder,
    wall_s: float,
    answered: int,
    traced_qps: float,
    untraced_qps: float,
    cache_before: Tuple[int, int, int, int],
    cache_after: Tuple[int, int, int, int],
    time_scale: float = 1.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced interval.

    ``wall_s`` is the length of the interval without the reference bursts
    in it; every share is of that.  ``answered`` queries were answered in it.
    ``cache_before``/``cache_after`` are ``(hits, lookups, inserts, len)`` of
    the program's ``PredictionCache``, read through its public counters.
    ``time_scale`` is the host's speed during the interval relative to the
    reference speed (see the harness); every time is multiplied by it and
    every rate divided, so the ledger is in the same units as the scaled
    end-to-end numbers.  ``traced_qps`` and ``untraced_qps`` are already in
    those units.
    """
    wall_ns = wall_s * 1e9
    queries = max(1, answered)
    self_ns = {name: slot[_SELF] for name, slot in recorder.slots.items()}
    # The harness's reference bursts sit between the windows that make up
    # ``wall_s``; they are nobody's cost.
    self_ns.pop("loadgen.calibrate", None)
    covered = {"loop.select"}
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_ROWS.items():
        out[metric] = (
            sum(self_ns.get(name, 0) for name in names) / queries / 1e3 * time_scale
        )
        covered.update(names)
    unmapped = sorted(set(self_ns) - covered)
    if unmapped:
        raise RuntimeError(f"spans without a ledger row: {unmapped}")

    hits, lookups, inserts, size = (
        after - before for before, after in zip(cache_before, cache_after)
    )
    predict = recorder.slots.get("rpc.predict", [0, 0, 0, 0])
    # What the replica's server reports per batch (the model call plus its
    # hand-off to an executor thread) and, for in-process containers, the
    # time inside ``predict_batch`` alone.
    evals = len(recorder.container_reported_ms)
    eval_ns = sum(recorder.container_reported_ms) * 1e6
    with recorder.offloop_lock:
        computes, compute_ns = recorder.offloop.get("containers.compute", [0, 0])
    out.update(
        {
            "selection.state_writes": recorder.state_writes / queries,
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.evictions": (inserts - size) / queries,
            "batching.queue_wait_p50_ms": _ms(recorder.queue_wait_ns, 50) * time_scale,
            "batching.queue_wait_p99_ms": _ms(recorder.queue_wait_ns, 99) * time_scale,
            "batching.batch_size_mean": (
                float(np.mean(recorder.batch_sizes)) if recorder.batch_sizes else 0.0
            ),
            "batching.batches": len(recorder.batch_sizes) / wall_s / time_scale,
            "rpc.bytes_per_query": recorder.rpc_bytes / queries,
            "rpc.roundtrip_ms": (
                predict[_WALL] / predict[_COUNT] / 1e6 * time_scale
                if predict[_COUNT]
                else 0.0
            ),
            "containers.eval_ms": eval_ns / evals / 1e6 * time_scale if evals else 0.0,
            "containers.compute_ms": (
                compute_ns / computes / 1e6 * time_scale if computes else 0.0
            ),
            "containers.busy_share": eval_ns / wall_ns,
            "loop.idle_share": self_ns.get("loop.select", 0) / wall_ns,
            "unattributed_share": 1.0 - sum(self_ns.values()) / wall_ns,
            "trace_overhead_share": 1.0 - traced_qps / untraced_qps,
            "traced_qps": traced_qps,
        }
    )
    return out


def cache_counters(cache: PredictionCache) -> Tuple[int, int, int, int]:
    stats = cache.stats
    return stats.hits, stats.lookups, stats.inserts, len(cache)


def histogram_counts(metrics_registry: Any) -> Dict[str, int]:
    """Observations so far in each of the program's histograms."""
    _, _, histograms, _ = metrics_registry.all_metrics()
    return {name: histogram.count for name, histogram in histograms.items()}


def cross_checks(
    recorder: Recorder, metrics_registry: Any, counts_before: Dict[str, int]
) -> List[str]:
    """Compare wrapper numbers with the program's own histograms.

    Only what the histograms observed since ``counts_before`` was taken is
    compared.  Returns one warning per stage whose two means differ by more
    than 15 %.
    """
    _, _, histograms, _ = metrics_registry.all_metrics()

    def program_mean(suffix: str) -> Optional[float]:
        values: List[float] = []
        for name, histogram in histograms.items():
            fresh = histogram.count - counts_before.get(name, 0)
            if name.endswith(suffix) and fresh:
                values.extend(histogram.values()[-fresh:])
        return float(np.mean(values)) if values else None

    pairs = [
        ("batch size", float(np.mean(recorder.batch_sizes or [0])), program_mean(".batch_size")),
        (
            "queue wait of the oldest item, ms",
            float(np.mean(recorder.oldest_wait_ns or [0])) / 1e6,
            program_mean('.stage_ms{stage="queue_wait"}'),
        ),
    ]
    warnings = []
    for what, ours, theirs in pairs:
        if not ours or not theirs:
            continue
        if abs(ours - theirs) > 0.15 * max(ours, theirs):
            warnings.append(
                f"{what}: wrappers measured {ours:.4g}, the program's histogram {theirs:.4g}"
            )
    return warnings


def write(recorder: Recorder, ledger_values: Dict[str, float], workload_name: str) -> None:
    """Write the aggregates, the ledger and the raw spans kept to ``out/``."""
    with recorder.offloop_lock:
        offloop = {name: list(slot) for name, slot in recorder.offloop.items()}
    document = {
        "ledger": ledger_values,
        "aggregate_columns": ["count", "wall_ns", "busy_ns", "self_ns"],
        "aggregates": recorder.slots,
        "offloop_columns": ["count", "wall_ns"],
        "offloop": offloop,
        "span_columns": ["name", "start_ns", "end_ns", "parent", "id", "busy_ns", "self_ns"],
        "spans": [span for span in recorder.raw[: recorder.raw_used] if span is not None],
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{workload_name}.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle)
