"""Golden test: the single-pass batch formation against the code it replaced.

``ParentDispatcher`` carries a verbatim copy of the parent commit's
``ReplicaDispatcher.dispatch_batch`` (its multi-pass prologue: ``any`` twice,
a live/expired partition, ``min`` over enqueue times, three comprehensions)
and ``_record_batch_spans`` (five span tuples per traced query).  Every
generated batch is built twice and dispatched through both onto a recording
replica, on a hand-set clock; the two must agree on

* the inputs and per-entry deadlines handed to the replica,
* how every future ends (result, exception type and arguments, cancelled,
  still pending) and what reached the late-result sink and the queue,
* ``queue_time_ms`` and the batch histograms,
* and, for every trace that commits — SLO miss, straggler (committed before
  its batch came back), retried batch, container error, sampled — the same
  span names, order, timestamps and flags.

What differs on purpose is asserted for the new code alone: only queries that
own a trace id put one on the wire, an all-shadow batch sends none, and a
shadow context that finishes boring is recycled carrying nothing.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace
from typing import Any, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_async
from repro.batching.aimd import AIMDController
from repro.batching.deadline import DEADLINE_MISS
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.core import clock
from repro.core.exceptions import ContainerError, PredictionTimeoutError, RpcError
from repro.core.types import BatchStats, ModelId
from repro.observability.tracing import (
    TRACE_STRAGGLER,
    BatchSpans,
    TraceContext,
    Tracer,
)
from repro.rpc.protocol import RpcRequest, RpcResponse
from simloop import ManualClock


#: The name the verbatim copy below reads its clock through: the one clock,
#: which a :class:`ManualClock` holds still while a case runs.
time = SimpleNamespace(monotonic=lambda: clock.now(), perf_counter=lambda: clock.now())


class ParentDispatcher(ReplicaDispatcher):
    """The parent commit's batch formation and span stamping, verbatim."""

    async def dispatch_batch(self, batch: List[PendingQuery]) -> None:
        """Evaluate one batch on the replica and resolve its futures."""
        # Fast path: queries without deadlines (no straggler mitigation /
        # feedback re-evaluations) skip the live/expired partition entirely —
        # ``any`` short-circuits on the first deadline-carrying query.
        carries_deadline = any(item.deadline is not None for item in batch)
        if self.drop_expired and carries_deadline:
            now = time.monotonic()
            live, expired = [], []
            for item in batch:
                (expired if item.expired(now) else live).append(item)
            for item in expired:
                if not item.future.done():
                    item.future.set_exception(
                        PredictionTimeoutError(item.query_id or -1, 0.0)
                    )
            batch = live
            if not batch:
                # A 100%-expired batch is never dispatched.
                return

        t_batch = time.monotonic()
        queue_time_ms = (t_batch - min(item.enqueue_time for item in batch)) * 1000.0
        # Tracing rides along only for batches that carry traced queries:
        # the common untraced batch pays one attribute read and one ``any``
        # scan, and no extra wire bytes.
        span_log: Optional[list] = None
        traced: Optional[List[PendingQuery]] = None
        trace_ids: Optional[List[Any]] = None
        tracer = self._tracer
        if tracer is not None and tracer.active and any(
            item.trace is not None for item in batch
        ):
            traced = [item for item in batch if item.trace is not None]
            trace_ids = [item.trace.trace_id for item in traced]
            span_log = []
        inputs = [item.input for item in batch]
        # Deadline propagation: batches with deadline-carrying queries hand
        # the per-entry deadlines (0.0 = none) to the RPC layer, which sends
        # each entry's remaining budget so the container can skip entries
        # that expire in transit.  Deadline-free batches send nothing extra.
        deadlines = (
            [item.deadline or 0.0 for item in batch]
            if self.drop_expired and carries_deadline
            else None
        )
        # A batch sent while its predecessor is still on the replica waits
        # behind it inside the container, so only a batch sent to an idle
        # replica measures what the RPC path itself costs.
        overlapped = self._on_replica > 0
        self._on_replica += 1
        self._overlapped_run = self._overlapped_run + 1 if overlapped else 0
        start = time.perf_counter()
        try:
            response = await self.replica.predict_batch(
                inputs, trace=trace_ids, span_log=span_log, deadlines=deadlines
            )
        except (RpcError, ContainerError) as exc:
            self._handle_failed_batch(batch, exc)
            return
        finally:
            self._on_replica -= 1
        latency_ms = (time.perf_counter() - start) * 1000.0

        eval_ms = response.container_latency_ms
        if overlapped and self.rpc_overhead_ms is not None:
            self.controller.observe(len(batch), eval_ms + self.rpc_overhead_ms)
        else:
            self.controller.observe(len(batch), latency_ms)
        stats = BatchStats(
            model_id=self.replica.model_id,
            replica_id=self.replica.replica_id,
            batch_size=len(batch),
            latency_ms=latency_ms,
            queue_time_ms=queue_time_ms,
        )
        self.batch_history.append(stats)
        self._batch_latency_hist.observe(latency_ms)
        self._batch_size_hist.observe(len(batch))
        self._throughput_meter.mark(len(batch))
        self._queue_wait_hist.observe(queue_time_ms)
        self._container_eval_hist.observe(eval_ms)

        if not response.ok:
            self._handle_failed_batch(
                batch, ContainerError(str(self.replica.model_id), response.error or "unknown")
            )
            return
        self.consecutive_failures = 0
        self._measure_pipeline(
            eval_ms, None if overlapped else max(0.0, latency_ms - eval_ms)
        )
        if traced is not None:
            self._record_batch_spans(traced, span_log, response, t_batch)
        sink = self.late_result_sink
        skipped = set(response.skipped) if response.skipped else None
        outputs = iter(response.outputs)
        for index, item in enumerate(batch):
            future = item.future
            if skipped is not None and index in skipped:
                # The container declined this entry: its deadline expired in
                # transit.  The straggler sweeper has usually already
                # resolved the future with DEADLINE_MISS; if not, surface
                # the timeout here.
                if not future.done():
                    future.set_exception(
                        PredictionTimeoutError(item.query_id or -1, 0.0)
                    )
                continue
            output = next(outputs)
            if not future.done():
                future.set_result(output)
            elif (
                sink is not None
                and not future.cancelled()
                and future.exception() is None
            ):
                # The straggler deadline already resolved this future; hand
                # the late output to the engine so it still reaches the
                # prediction cache.
                sink(item, output)


    def _record_batch_spans(
        self,
        traced: List[PendingQuery],
        span_log: Optional[list],
        response: Any,
        t_batch: float,
    ) -> None:
        """Stamp the batch's lifecycle spans onto each traced query.

        Must run before the batch's futures resolve so the engine's
        :meth:`Tracer.finish` sees the spans; contexts already committed by
        the straggler deadline are safe to append to because committed
        records share (do not copy) the context's span list.
        """
        t_done = time.monotonic()
        rpc_spans = span_log or []
        eval_start, eval_end = response.eval_start, response.eval_end
        for item in traced:
            spans = item.trace.spans
            spans.append(("queue.wait", item.enqueue_time, t_batch, None))
            if rpc_spans:
                # batch.assemble covers drain + encode, up to the RPC send.
                spans.append(("batch.assemble", t_batch, rpc_spans[0][1], None))
                spans.extend(rpc_spans)
            if eval_end:
                spans.append(("container.eval", eval_start, eval_end, None))
                spans.append(("rpc.recv", eval_end, t_done, None))



# -- the two worlds ------------------------------------------------------------------

MODEL = ModelId("golden", 1)
T0 = 1000.0  # the hand-set clock when a batch is formed


class RecordingReplica:
    """Answers as the case says and remembers what it was handed."""

    model_id = MODEL
    replica_id = 0
    name = "golden:1[0]"

    def __init__(self, case: dict, hand: ManualClock) -> None:
        self.case = case
        self.hand = hand
        self.calls: List[tuple] = []

    async def predict_batch(self, inputs, trace=None, span_log=None, deadlines=None):
        case = self.case
        self.calls.append((list(inputs), deadlines and list(deadlines), trace))
        sent = self.hand.now
        self.hand.now = sent + 0.002
        if span_log is not None:
            span_log.append(("rpc.send", sent, sent + 0.0004, None))
            span_log.append(("rpc.wait", sent + 0.0004, self.hand.now, None))
        if case["outcome"] == "rpc_error":
            raise RpcError("connection closed")
        skipped = tuple(sorted(i for i in case["skipped"] if i < len(inputs)))
        stamped = span_log is not None and case["stamps"]
        return RpcResponse(
            request_id=0,
            outputs=[("out", x) for i, x in enumerate(inputs) if i not in skipped],
            error="boom" if case["outcome"] == "container_error" else None,
            container_latency_ms=1.5,
            eval_start=sent + 0.0007 if stamped else 0.0,
            eval_end=sent + 0.0017 if stamped else 0.0,
            skipped=skipped,
        )


class TracingOn:
    enabled = True
    sample_every = 1 << 30  # contexts are made by hand below
    tail_capture = True
    ring_capacity = 512


class TracingOff(TracingOn):
    enabled = False


def future_state(future: asyncio.Future) -> tuple:
    if not future.done():
        return ("pending",)
    if future.cancelled():
        return ("cancelled",)
    error = future.exception()
    if error is not None:
        return ("exception", type(error).__name__, error.args)
    result = future.result()
    return ("result", "DEADLINE_MISS" if result is DEADLINE_MISS else result)


async def run_world(case: dict, dispatcher_class: type, hand: ManualClock) -> dict:
    """Build the case's batch from scratch, dispatch it, report what happened."""
    loop = asyncio.get_running_loop()
    hand.now = T0
    tracer = {
        "on": Tracer(TracingOn()), "off": Tracer(TracingOff()), "none": None,
    }[case["tracer"]]
    contexts = Tracer(TracingOn())  # where this world's contexts come from
    replica = RecordingReplica(case, hand)
    queue = BatchingQueue(name="golden")
    late: List[tuple] = []
    dispatcher = dispatcher_class(
        replica=replica,
        queue=queue,
        controller=AIMDController(slo_ms=50.0),
        drop_expired=case["drop_expired"],
        max_retries=case["max_retries"],
        late_result_sink=lambda item, output: late.append((item.input, output)),
        tracer=tracer,
    )
    batch: List[PendingQuery] = []
    committed_early = {}
    for index, plan in enumerate(case["items"]):
        future = loop.create_future()
        if plan["future"] == "missed":
            future.set_result(DEADLINE_MISS)
        elif plan["future"] == "cancelled":
            future.cancel()
        deadline = {
            "none": None, "past": T0 - 0.001, "now": T0, "future": T0 + 0.020,
        }[plan["deadline"]]
        queued = T0 - plan["queued_ms_ago"] / 1000.0
        kind = plan["trace"]
        if kind == "none":
            trace = None
        elif kind == "sampled":
            trace = TraceContext(5000 + index, True, queued - 0.0001)
            trace.add("selection.select", queued - 0.0001, queued)
        elif kind == "forced":
            trace = contexts.begin(f"forced-{index}", queued - 0.0001)
        else:  # shadow, straggler
            trace = contexts.shadow(queued - 0.0001)
        item = PendingQuery(
            index, future, queued, deadline, plan["query_id"], f"hash-{index}", 0, trace
        )
        if kind == "straggler":
            # The straggler deadline closed the query before its batch left.
            trace.flags |= TRACE_STRAGGLER
            trace.add("deadline.miss", T0 - 0.0002, T0 - 0.0002, {"model": "golden:1"})
            committed_early[index] = contexts.finish(
                trace, slo_missed=True, default_used=True, query_id=plan["query_id"]
            )
        batch.append(item)

    await dispatcher.dispatch_batch(list(batch))

    traces = []
    for index, (item, plan) in enumerate(zip(batch, case["items"])):
        trace = item.trace
        if trace is None:
            traces.append(None)
            continue
        if index in committed_early:
            trace_id = committed_early[index]
        else:
            hand.now += 0.0001
            trace_id = contexts.finish(
                trace,
                slo_missed=plan["finish"] == "slo_miss",
                default_used=plan["finish"] == "default",
                error=plan["finish"] == "error",
                query_id=plan["query_id"],
            )
        if trace_id is None:
            # Boring: recycled.  It must carry nothing of this query.
            assert trace.spans == [] and trace in contexts._pool
            traces.append("recycled")
            continue
        record = contexts.registry.get(trace_id)
        assert record.spans is trace.spans
        assert not any(isinstance(span, BatchSpans) for span in record.spans)
        traces.append((record.flags, record.sampled, record.query_id, list(record.spans)))
    return {
        "sent": [(inputs, deadlines) for inputs, deadlines, _ in replica.calls],
        "wire_ids": [ids for _, _, ids in replica.calls],
        "owned_ids": {
            index: item.trace.trace_id
            for index, (item, plan) in enumerate(zip(batch, case["items"]))
            if plan["trace"] in ("sampled", "forced", "straggler")
        },
        "futures": [future_state(item.future) for item in batch],
        "late": late,
        "requeued": [(item.input, item.attempts) for item in queue._items],
        "history": [
            (stats.batch_size, stats.queue_time_ms, stats.latency_ms)
            for stats in dispatcher.batch_history
        ],
        "batches": (
            dispatcher._batch_size_hist.count, dispatcher.batches_failed,
            dispatcher.consecutive_failures,
        ),
        "traces": traces,
    }


ITEM = st.fixed_dictionaries(
    {
        "deadline": st.sampled_from(["none", "past", "now", "future", "future"]),
        "trace": st.sampled_from(
            ["none", "shadow", "shadow", "shadow", "sampled", "forced", "straggler"]
        ),
        "future": st.sampled_from(["pending", "pending", "pending", "missed", "cancelled"]),
        "queued_ms_ago": st.integers(0, 40),
        "query_id": st.one_of(st.none(), st.integers(0, 99)),
        "finish": st.sampled_from(["boring", "boring", "slo_miss", "default", "error"]),
    }
)
CASE = st.fixed_dictionaries(
    {
        "items": st.lists(ITEM, min_size=1, max_size=12),
        "drop_expired": st.booleans(),
        "tracer": st.sampled_from(["on", "on", "on", "off", "none"]),
        "outcome": st.sampled_from(["ok", "ok", "ok", "container_error", "rpc_error"]),
        "stamps": st.booleans(),
        "skipped": st.sets(st.integers(0, 11), max_size=3),
        "max_retries": st.integers(0, 1),
    }
)


def both_worlds(case: dict):
    async def scenario(hand):
        parent = await run_world(case, ParentDispatcher, hand)
        change = await run_world(case, ReplicaDispatcher, hand)
        return parent, change

    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_async(scenario(ManualClock(monkeypatch)))


class TestSinglePassAgainstTheParent:
    @settings(max_examples=300, deadline=None)
    @given(case=CASE)
    def test_same_batch_same_futures_same_committed_traces(self, case):
        parent, change = both_worlds(case)
        # The parent put every traced query's id slot on the wire, ``None``
        # for a shadow; only ids that exist are sent now, in batch order.
        owned = change.pop("owned_ids")
        for (inputs, _), ids in zip(change["sent"], change.pop("wire_ids")):
            if case["tracer"] == "on":
                assert ids == [owned[index] for index in inputs if index in owned]
            else:
                assert ids is None
        del parent["owned_ids"], parent["wire_ids"]
        assert change == parent

    def test_mixed_batch_by_hand(self):
        """One readable case: expired, traced three ways, a skip, a late fill."""
        plan = dict(deadline="future", trace="shadow", future="pending",
                    queued_ms_ago=5, query_id=1, finish="boring")
        case = {
            "items": [
                plan,
                {**plan, "deadline": "past", "query_id": None},
                {**plan, "trace": "sampled", "queued_ms_ago": 9},
                {**plan, "trace": "straggler", "future": "missed"},
                {**plan, "finish": "slo_miss"},
                {**plan, "deadline": "none", "trace": "none"},
            ],
            "drop_expired": True, "tracer": "on", "outcome": "ok", "stamps": True,
            "skipped": {3}, "max_retries": 0,
        }
        parent, change = both_worlds(case)
        assert change["sent"] == [
            ([0, 2, 3, 4, 5], [T0 + 0.020] * 4 + [0.0]),
        ]
        # Sampled + straggler; the parent also sent a ``None`` per shadow.
        assert change["wire_ids"][0] == list(change["owned_ids"].values())
        assert parent["wire_ids"][0].count(None) == 2
        assert change["futures"][1][:2] == ("exception", "PredictionTimeoutError")
        assert change["late"] == [(3, ("out", 3))]
        assert change["traces"][0] == "recycled" and change["traces"][5] is None
        names = [name for name, _, _, _ in change["traces"][4][3]]
        assert names == [
            "queue.wait", "batch.assemble", "rpc.send", "rpc.wait",
            "container.eval", "rpc.recv",
        ]
        for key in ("sent", "futures", "late", "requeued", "history", "batches", "traces"):
            assert change[key] == parent[key], key


class TestAllShadowBatchOnTheWire:
    def test_no_trace_header_and_one_stamp_request(self):
        """Asserted on the decoded request: what an all-shadow batch sends."""
        request = RpcRequest(
            request_id=1, model_name="m", inputs=[1.0, 2.0], trace=(), stamp=True
        )
        payload = request.to_payload()
        assert "trace" not in payload and payload["stamp"] is True
        assert "stamp" not in RpcRequest(1, "m", [1.0]).to_payload()
