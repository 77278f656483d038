"""The contract of ``ReplicaDispatcher.dispatch_batch``, entry by entry.

Every generated batch is dispatched onto a recording replica on a hand-set
clock, and what happened must equal the outcome table :func:`expected`
computes from the case alone:

* **what is sent** — an entry whose deadline the clock has reached is left
  out; the rest go in batch order, with per-entry
  deadlines (0.0 = none) only when some entry of the batch carries one, and a
  batch with nothing left is not sent at all;
* **how each future ends** — an entry left out as expired, and one the
  container skipped, resolves ``DEADLINE_MISS``, as the straggler sweeper
  would have resolved it; an answered one gets its output; after a failed
  batch an entry is requeued while it has a retry left and otherwise fails
  with the batch's error; a future already resolved or cancelled stays as
  it was;
* **what reaches the cache** — every answered entry's output, under its
  input hash, in one fill per batch, whatever became of its future (a
  straggler's late output too);
* **what is measured** — ``queue_time_ms`` is the wait of the oldest *sent*
  entry, and the batch counters;
* **every trace that commits** (sampled, SLO miss, default, error, retried,
  or a straggler committed before its batch came back) — its flags and its
  spans, in order and with their stamps: ``queue.wait`` from enqueue to the
  batch's formation, ``batch.assemble``, the RPC legs, ``container.eval`` and
  ``rpc.recv`` when the container stamped its evaluation, and ``batch.retry``
  after a failed batch.

Capture is lazy: an unsampled entry carries no context.  The world finishes
each one as the engine does: an interesting query's shadow is built from
what its entry was stamped with (:meth:`Tracer.shadow`), and a boring one
builds nothing.  A traced dispatcher asks every batch for the container's
evaluation stamps (one header field, whoever owns a trace id), an untraced
one asks none.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import run_async
from repro.batching.controllers import AIMDController
from repro.batching.deadline import DEADLINE_MISS
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.core.config import BatchingConfig
from repro.core.exceptions import ContainerError, RpcError
from repro.core.types import ModelId
from repro.observability.tracing import (
    TRACE_DEFAULT_USED,
    TRACE_ERROR,
    TRACE_RETRIED,
    TRACE_SLO_MISS,
    TRACE_STRAGGLER,
    BatchSpans,
    TraceContext,
    Tracer,
)
from repro.rpc.protocol import RpcResponse, predict_request
from simloop import ManualClock

MODEL = ModelId("model", 1)
T0 = 1000.0  # the hand-set clock when the batch is formed
ANSWERED = T0 + 0.002  # the replica takes 2 ms of it
DEADLINES = {"none": None, "past": T0 - 0.001, "now": T0, "future": T0 + 0.020}


class RecordingReplica:
    """Answers as the case says and remembers what it was handed."""

    model_id = MODEL
    replica_id = 0
    name = "model:1[0]"

    def __init__(self, case: dict, hand: ManualClock) -> None:
        self.case = case
        self.hand = hand
        self.calls: List[tuple] = []

    async def predict_batch(self, inputs, span_log=None, deadlines=None):
        case = self.case
        self.calls.append((list(inputs), deadlines and list(deadlines), span_log is not None))
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


class RecordingCache:
    """Remembers each fill: the entries' indices (from their hashes) and outputs."""

    def __init__(self) -> None:
        self.fills: List[list] = []

    def put_by_hash(self, model_key, input_hashes, outputs) -> None:
        assert model_key == "model:1"
        self.fills.append(
            [(int(h.removeprefix("hash-")), output) for h, output in zip(input_hashes, outputs)]
        )


def queued(plan: dict) -> float:
    return T0 - plan["queued_ms_ago"] / 1000.0


def spans_before(plan: dict) -> List[tuple]:
    """What a context holds when its batch is formed: a sampled query's
    selection span, or the straggler deadline's miss."""
    return {
        "sampled": [("selection.select", queued(plan) - 0.0001, queued(plan), None)],
        "straggler": [("deadline.miss", T0 - 0.0002, T0 - 0.0002, {"model": "model:1"})],
    }.get(plan["trace"], [])


async def run_world(case: dict, hand: ManualClock) -> dict:
    """Build the case's batch, dispatch it, report what happened."""
    loop = asyncio.get_running_loop()
    hand.now = T0
    # Head sampling never fires: the case's contexts are made by hand below,
    # a forced one through ``begin`` with an id.
    tracer = {"on": Tracer(), "off": Tracer(False), "none": None}[case["tracer"]]
    contexts = Tracer()  # where this world's contexts come from
    replica = RecordingReplica(case, hand)
    queue = BatchingQueue(name="model")
    cache = RecordingCache()
    dispatcher = ReplicaDispatcher(
        replica=replica,
        queue=queue,
        controller=AIMDController(BatchingConfig(), slo_ms=50.0),
        max_retries=case["max_retries"],
        cache=cache,
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
        kind = plan["trace"]
        if kind == "sampled":
            trace = TraceContext(5000 + index, True, queued(plan) - 0.0001)
        elif kind == "forced":
            trace = contexts.begin(f"forced-{index}", queued(plan) - 0.0001)
        else:  # unsampled, straggler: no context rides along
            trace = None
        if trace is not None:
            trace.spans.extend(spans_before(plan))
        item = PendingQuery(
            index, future, queued(plan), DEADLINES[plan["deadline"]], plan["query_id"],
            f"hash-{index}", 0, trace,
        )
        if kind == "straggler":
            # The straggler deadline closed the query before its batch left:
            # interesting, so its shadow was built (from nothing yet) and
            # committed, and the entry points at it.
            trace = contexts.shadow(queued(plan) - 0.0001, [item])
            trace.spans.extend(spans_before(plan))
            trace.flags |= TRACE_STRAGGLER
            committed_early[index] = contexts.finish(
                trace, slo_missed=True, default_used=True, query_id=plan["query_id"]
            )
        batch.append(item)

    await dispatcher.dispatch_batch(list(batch))

    traces = []
    for index, (item, plan) in enumerate(zip(batch, case["items"])):
        trace = item.trace
        if index in committed_early:
            trace_id = committed_early[index]
        else:
            if plan["trace"] == "unsampled":
                if plan["finish"] == "boring" and type(trace) is not TraceContext:
                    # Boring and never retried: nothing is built, and the
                    # entry holds at most its batch's shared spans.
                    assert trace is None or type(trace) is BatchSpans
                    traces.append("uncaptured")
                    continue
                trace = contexts.shadow(queued(plan) - 0.0001, [item])
            hand.now += 0.0001
            trace_id = contexts.finish(
                trace,
                slo_missed=plan["finish"] == "slo_miss",
                default_used=plan["finish"] == "default",
                error=plan["finish"] == "error",
                query_id=plan["query_id"],
            )
        record = contexts.registry.get(trace_id)
        assert record.spans is trace.spans
        assert not any(isinstance(span, BatchSpans) for span in record.spans)
        traces.append((record.flags, record.sampled, record.query_id, list(record.spans)))
    return {
        "sent": [(inputs, deadlines) for inputs, deadlines, _ in replica.calls],
        "stamped": [stamped for _, _, stamped in replica.calls],
        "futures": [future_state(item.future) for item in batch],
        "cached": cache.fills,
        "requeued": [(item.input, item.attempts) for item in queue._items],
        "history": list(zip(
            dispatcher._batch_size_hist.values(), dispatcher._queue_wait_hist.values(),
            dispatcher._batch_latency_hist.values(),
        )),
        "batches": (
            dispatcher._batch_size_hist.count, dispatcher.batches_failed,
            dispatcher.consecutive_failures,
        ),
        "traces": traces,
    }


def dispatched(case: dict) -> dict:
    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_async(run_world(case, ManualClock(monkeypatch)))


# -- the outcome table -----------------------------------------------------------

PENDING, MISSED = ("pending",), ("result", "DEADLINE_MISS")
BEFORE = {"pending": PENDING, "missed": MISSED, "cancelled": ("cancelled",)}
FINISH_FLAGS = {
    "boring": 0, "slo_miss": TRACE_SLO_MISS, "default": TRACE_DEFAULT_USED, "error": TRACE_ERROR,
}


def failed(error: Exception) -> tuple:
    return ("exception", type(error).__name__, error.args)


def expected(case: dict) -> dict:
    """What ``dispatch_batch`` must do with the case's batch, entry by entry."""
    plans, outcome = case["items"], case["outcome"]
    live = [i for i, plan in enumerate(plans) if plan["deadline"] not in ("past", "now")]
    futures = [BEFORE[plan["future"]] for plan in plans]
    for i, plan in enumerate(plans):
        if i not in live and futures[i] == PENDING:
            futures[i] = MISSED
    spans = [spans_before(plan) for plan in plans]
    table = {
        "sent": [], "stamped": [], "futures": futures, "cached": [], "requeued": [],
        "history": [], "batches": (0, 0, 0),
    }
    retried = set()
    if live:
        carries_deadline = any(plan["deadline"] != "none" for plan in plans)
        table["sent"] = [(live, [DEADLINES[plans[i]["deadline"]] or 0.0 for i in live]
                          if carries_deadline else None)]
        table["stamped"] = [case["tracer"] == "on"]
        if outcome != "rpc_error":
            oldest = min(queued(plans[i]) for i in live)
            table["history"] = [(len(live), (T0 - oldest) * 1000.0, (ANSWERED - T0) * 1000.0)]
        if outcome == "ok":
            table["batches"] = (1, 0, 0)
            skipped = set(case["skipped"])
            cached = []
            for position, i in enumerate(live):
                if position in skipped:
                    if futures[i] == PENDING:
                        futures[i] = MISSED
                    continue
                cached.append((i, ("out", i)))
                if futures[i] == PENDING:
                    futures[i] = ("result", ("out", i))
            table["cached"] = [cached]
            if case["tracer"] == "on":
                common = [
                    ("batch.assemble", T0, T0, None),
                    ("rpc.send", T0, T0 + 0.0004, None),
                    ("rpc.wait", T0 + 0.0004, ANSWERED, None),
                ]
                if case["stamps"]:
                    common += [
                        ("container.eval", T0 + 0.0007, T0 + 0.0017, None),
                        ("rpc.recv", T0 + 0.0017, ANSWERED, None),
                    ]
                for i in live:
                    spans[i] += [("queue.wait", queued(plans[i]), T0, None), *common]
        else:
            table["batches"] = (int(outcome == "container_error"), 1, 1)
            error = (RpcError("connection closed") if outcome == "rpc_error"
                     else ContainerError("model:1", "boom"))
            for i in live:
                if futures[i] != PENDING:
                    continue
                if case["tracer"] == "on" or plans[i]["trace"] != "unsampled":
                    # Tail capture gives an unsampled entry a context to hold it.
                    retried.add(i)
                    spans[i].append(
                        ("batch.retry", ANSWERED, ANSWERED, {"error": type(error).__name__})
                    )
                if case["max_retries"]:
                    table["requeued"].append((i, 1))
                else:
                    futures[i] = failed(error)
    traces = []
    for i, plan in enumerate(plans):
        kind = plan["trace"]
        if kind == "straggler":  # its flags were fixed when it committed
            flags = TRACE_STRAGGLER | TRACE_SLO_MISS | TRACE_DEFAULT_USED
        else:
            flags = FINISH_FLAGS[plan["finish"]] | (TRACE_RETRIED if i in retried else 0)
            if not flags and kind == "unsampled":
                traces.append("uncaptured")
                continue
        traces.append((flags, kind in ("sampled", "forced"), plan["query_id"], spans[i]))
    table["traces"] = traces
    return table


ITEM = st.fixed_dictionaries(
    {
        "deadline": st.sampled_from(["none", "past", "now", "future", "future"]),
        "trace": st.sampled_from(
            ["unsampled", "unsampled", "unsampled", "unsampled", "sampled", "forced",
             "straggler"]
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
        "tracer": st.sampled_from(["on", "on", "on", "off", "none"]),
        "outcome": st.sampled_from(["ok", "ok", "ok", "container_error", "rpc_error"]),
        "stamps": st.booleans(),
        "skipped": st.sets(st.integers(0, 11), max_size=3),
        "max_retries": st.integers(0, 1),
    }
)


class TestDispatchBatchContract:
    @given(case=CASE)
    def test_every_entry_ends_as_the_outcome_table_says(self, case):
        assert dispatched(case) == expected(case)

    def test_mixed_batch_by_hand(self):
        """One readable case: expired, traced three ways, a skip, a late fill."""
        plan = dict(deadline="future", trace="unsampled", future="pending",
                    queued_ms_ago=5, query_id=1, finish="boring")
        case = {
            "items": [
                plan,
                {**plan, "deadline": "past", "query_id": None},
                {**plan, "trace": "sampled", "queued_ms_ago": 9},
                {**plan, "trace": "straggler", "future": "missed"},
                {**plan, "finish": "slo_miss"},
                {**plan, "deadline": "none"},
            ],
            "tracer": "on", "outcome": "ok", "stamps": True,
            "skipped": {3}, "max_retries": 0,
        }
        happened = dispatched(case)
        assert happened["sent"] == [([0, 2, 3, 4, 5], [T0 + 0.020] * 4 + [0.0])]
        # Traced: the one batch asks for the container's stamps.
        assert happened["stamped"] == [True]
        assert happened["futures"][1] == MISSED
        assert happened["history"] == [(5, pytest.approx(9.0), pytest.approx(2.0))]
        # Entry 3 sits at position 2 of the sent batch: position 3 (entry 4)
        # was skipped; every answered output, the straggler's too, was cached.
        assert happened["futures"][4] == MISSED
        assert happened["cached"] == [[(i, ("out", i)) for i in (0, 2, 3, 5)]]
        assert happened["traces"][0] == happened["traces"][5] == "uncaptured"
        names = [name for name, _, _, _ in happened["traces"][4][3]]
        assert names == [
            "queue.wait", "batch.assemble", "rpc.send", "rpc.wait",
            "container.eval", "rpc.recv",
        ]
        assert happened == expected(case)

    def test_a_stamp_request_is_one_header_field(self):
        """What a traced batch adds to its request (any query may turn out
        interesting under tail capture), and an untraced one does not."""
        payload = predict_request(1, [1.0, 2.0], None, True)
        assert set(payload) == {"type", "request_id", "inputs", "stamp"}
        assert payload["stamp"] is True
        assert "stamp" not in predict_request(1, [1.0])
