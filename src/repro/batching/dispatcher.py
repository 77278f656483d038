"""Per-replica batch dispatchers.

One dispatcher task runs for every container replica (paper §4.4.1: adaptive
batching is performed independently per replica).  The loop is:

1. Wait until the replica can take another batch (a free pipeline slot).
2. Ask the replica's batch-size controller for the current maximum size and
   drain up to that many queries from the model's batching queue, optionally
   waiting ``batch_wait_timeout_ms`` for more under light load (§4.3.2).
3. Send the batch over RPC to the container, measure the evaluation latency.
4. Feed the (size, latency) observation back into the controller and resolve
   each query's future with its output.

Pipelining
----------
A query is bound to a batch at the last moment: the loop takes its slot
*before* it touches the queue, so no formed batch ever exists outside a
replica.  Until a slot frees, every waiting query stays on the shared queue,
where drop-oldest eviction, the depth bound, the in-queue deadline check and
a sibling replica that frees up first can all still reach it — and a query
that arrives while the replica is busy rides in the very next batch.

How many batches may be in flight is measured, not configured.  Every
response carries the container's own evaluation time; the round trip of a
batch sent to an idle replica, minus that, is what the RPC path costs
(encode, transport, decode, loop hops).  The dispatcher keeps one moving
average of each and allows ``min(PIPELINE_WINDOW, 1 + floor(overhead /
eval))`` batches in flight, starting at 1.  A model whose evaluation
dominates is served serially: the container evaluates one batch at a time,
so a second batch in flight would only wait behind the first (a whole
evaluation of latency for at most ``overhead / eval`` of utilisation).  A
model cheaper than its RPC path keeps ``PIPELINE_WINDOW`` batches in flight,
so queue drain and encoding overlap with the previous batch's round trip.
A pipeline kept full never meets an idle replica, so every
``_REMEASURE_EVERY`` overlapped batches the loop lets it drain once and the
overhead average follows a path that got faster or slower.  The RPC client
demultiplexes responses by request id and the container server evaluates
strictly in arrival order, so per-query results always resolve the right
futures at any depth.

The batch-size controllers are fed a latency free of in-container queueing:
the round trip for a batch sent to an idle replica, and the container's
evaluation time plus the overhead average for a batch that overlapped its
predecessor, so they converge to the same size at any depth.

Dispatchers are detachable: :meth:`ReplicaDispatcher.stop` leaves the shared
queue live (queued queries stay put for the model's other replicas) and a
stopped dispatcher can be re-started, which is how the management plane
scales replicas and quarantines/recovers unhealthy ones at runtime.  When a
replica fails a batch, queries are re-enqueued onto the shared queue (up to
``max_retries`` per query) so a single sick replica does not fail queries
that a healthy sibling could still serve; after a failed batch the loop
backs off briefly (``failure_cooldown_ms``) so a dead replica does not spin
stealing work from healthy ones while the health monitor converges.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Set

from repro.batching.controllers import BatchSizeController
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.replica import Replica
from repro.core.exceptions import ContainerError, PredictionTimeoutError, RpcError
from repro.core.metrics import MetricsRegistry
from repro.core.types import BatchStats, ReplicaHealth
from repro.observability.logging import get_logger
from repro.observability.tracing import TRACE_RETRIED, BatchSpans

logger = get_logger("batching.dispatcher")

#: Upper bound on batches in flight per replica.  What a replica is allowed
#: under it is measured (see "Pipelining" above), so the bound is not a
#: deployment option; the constructor takes it for tests that drive the loop
#: at other depths.
PIPELINE_WINDOW = 2
#: Weight of a new sample in the evaluation / RPC-overhead moving averages.
_EWMA_WEIGHT = 0.125
#: After this many consecutive overlapped batches the loop lets the pipeline
#: drain once, so the next batch meets an idle replica and re-measures the
#: RPC overhead a saturated pipeline would otherwise never see again.
_REMEASURE_EVERY = 32
#: Most recent batches kept in ``batch_history``; the histograms carry the
#: long-run distribution, so the history only has to be bounded.
_BATCH_HISTORY_LEN = 1024


def _ewma(average: Optional[float], sample: float) -> float:
    if average is None:
        return sample
    return average + _EWMA_WEIGHT * (sample - average)


def _time_out(item: PendingQuery) -> None:
    """Fail an entry whose deadline passed before it could be evaluated."""
    if not item.future.done():
        item.future.set_exception(PredictionTimeoutError(item.query_id or -1, 0.0))


class ReplicaDispatcher:
    """Drains a batching queue into one container replica."""

    def __init__(
        self,
        replica: Replica,
        queue: BatchingQueue,
        controller: BatchSizeController,
        batch_wait_timeout_ms: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        drop_expired: bool = True,
        max_retries: int = 0,
        failure_cooldown_ms: float = 20.0,
        pipeline_window: int = PIPELINE_WINDOW,
        late_result_sink: Optional[Callable[[PendingQuery, Any], None]] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.replica = replica
        self.queue = queue
        self.controller = controller
        self.batch_wait_timeout_ms = batch_wait_timeout_ms
        self.metrics = metrics or MetricsRegistry()
        self.drop_expired = drop_expired
        self.max_retries = max_retries
        self.failure_cooldown_ms = failure_cooldown_ms
        #: Upper bound on batches in flight; see :attr:`pipeline_depth`.
        self.pipeline_window = max(1, int(pipeline_window))
        #: Batches the loop currently allows in flight, re-derived after
        #: every answered batch from the two moving averages below.
        self.pipeline_depth = 1
        #: Moving averages (ms) of the container's evaluation time and of
        #: what the RPC path adds to it; None until first measured.
        self.eval_ms: Optional[float] = None
        self.rpc_overhead_ms: Optional[float] = None
        #: Called with (item, output) when a query's future was already
        #: resolved (straggler deadline) by the time its container output
        #: arrived — the serving engine uses it to late-fill the prediction
        #: cache.
        self.late_result_sink = late_result_sink
        self.batch_history: Deque[BatchStats] = deque(maxlen=_BATCH_HISTORY_LEN)
        #: Failed batches since the last success — read by the health
        #: monitor as a passive unhealthiness signal alongside its probes.
        self.consecutive_failures = 0
        self.batches_failed = 0
        #: The replica's health record and, while it is quarantined, the task
        #: restarting it.  Both live here so that they leave with the replica
        #: and stay when it is only replaced; the health monitor writes them.
        self.health = ReplicaHealth(
            replica.name, str(replica.model_id), replica.replica_id
        )
        self.recovery: Optional[asyncio.Task] = None
        self._task: Optional[asyncio.Task] = None
        self._running = False
        self._inflight: Set[asyncio.Task] = set()
        self._inflight_done: Optional[asyncio.Event] = None
        #: Batches sent to the replica and not yet answered, and how many in
        #: a row were sent while another was still there.
        self._on_replica = 0
        self._overlapped_run = 0
        self._cooldown_due = False
        # Metric handles are resolved once per dispatcher instead of per
        # batch: the registry lookup rebuilds the f-string name and takes a
        # lock on every call, which adds up at high batch rates.
        prefix = f"model.{replica.model_id}"
        self._batch_latency_hist = self.metrics.histogram(f"{prefix}.batch_latency_ms")
        self._batch_size_hist = self.metrics.histogram(f"{prefix}.batch_size")
        self._throughput_meter = self.metrics.meter(f"{prefix}.throughput")
        # Per-stage latency attribution uses the labels() family fast path:
        # the child names are hashed here, once, and each batch costs two
        # plain observe calls against pre-resolved handles.
        stage_family = self.metrics.histogram_family(f"{prefix}.stage_ms", label="stage")
        self._queue_wait_hist = stage_family.labels("queue_wait")
        self._container_eval_hist = stage_family.labels("container_eval")
        self._depth_gauge = self.metrics.gauge(f"{prefix}.pipeline_depth")
        self._overhead_gauge = self.metrics.gauge(f"{prefix}.rpc_overhead_ms")
        self._eval_gauge = self.metrics.gauge(f"{prefix}.eval_ms")
        self._depth_gauge.set(self.pipeline_depth)
        #: The engine's Tracer (None when this dispatcher serves an untraced
        #: engine); traced queries in a batch get queue-wait/RPC/eval spans.
        self._tracer = tracer

    def start(self) -> asyncio.Task:
        """Start the dispatch loop as a background task."""
        if self._task is None or self._task.done():
            self._running = True
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self._task

    async def stop(self) -> None:
        """Stop the dispatch loop after the in-flight batches complete."""
        self._running = False
        if self._task is not None:
            # Wake the loop if it is parked waiting for work (or topping up
            # a delayed batch) so shutdown is prompt; other dispatchers
            # sharing the queue see an empty or partial batch and simply
            # dispatch it / re-enter their wait.
            self.queue.wake_all()
            try:
                await asyncio.wait_for(self._task, timeout=5.0)
            except asyncio.TimeoutError:
                self._task.cancel()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass
            self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        self._inflight_done = asyncio.Event()
        try:
            while self._running:
                if self.queue.closed and self.queue.qsize() == 0:
                    return
                depth = (
                    self.pipeline_depth
                    if self._overlapped_run < _REMEASURE_EVERY
                    else 1
                )
                if len(self._inflight) >= depth:
                    # Slot first, queue second: until the replica can take
                    # another batch the waiting queries stay on the shared
                    # queue instead of in a batch formed too early.
                    self._inflight_done.clear()
                    await self._inflight_done.wait()
                    continue
                batch = await self.queue.get_batch(
                    max_batch_size=self.controller.current_batch_size(),
                    batch_wait_timeout_ms=self.batch_wait_timeout_ms,
                )
                if not batch:
                    continue
                if self._cooldown_due:
                    # Back off after a failed batch *before* sending anything
                    # else: the queries just drained go back onto the shared
                    # queue so healthy siblings pick them up first, instead
                    # of this (likely dead) replica re-stealing them in a
                    # tight loop.  The flag is set by _handle_failed_batch
                    # before it requeues, so it is already visible when the
                    # requeued queries wake this loop.
                    self._cooldown_due = False
                    if self._running and self.failure_cooldown_ms > 0:
                        batch = self._release_for_cooldown(batch)
                        await asyncio.sleep(self.failure_cooldown_ms / 1000.0)
                        if not batch:
                            continue
                task = loop.create_task(self._dispatch_guarded(batch))
                self._inflight.add(task)
                task.add_done_callback(self._on_dispatch_done)
        finally:
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)

    def _release_for_cooldown(self, batch: List[PendingQuery]) -> List[PendingQuery]:
        """Put a drained batch back on the shared queue before backing off.

        Returns the queries that could not be requeued (queue closed or
        full) — the caller dispatches those itself rather than lose them.
        """
        remaining: List[PendingQuery] = []
        for index, item in enumerate(batch):
            try:
                self.queue.put_nowait(item)
            except (RuntimeError, asyncio.QueueFull):
                remaining.extend(batch[index:])
                break
        return remaining

    async def _dispatch_guarded(self, batch: List[PendingQuery]) -> None:
        """Dispatch-task wrapper: no exception may strand the futures.

        :meth:`dispatch_batch` handles RPC/container failures itself; an
        exception escaping it is a bug, but the batch's callers must still
        see a failure rather than hang, and the pipeline slot must free up.
        """
        try:
            await self.dispatch_batch(batch)
        except asyncio.CancelledError:
            self._handle_failed_batch(
                batch, RpcError("dispatcher stopped with the batch in flight")
            )
            raise
        except Exception as exc:
            self._handle_failed_batch(batch, exc)

    def _on_dispatch_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        if self._inflight_done is not None:
            self._inflight_done.set()

    async def dispatch_batch(self, batch: List[PendingQuery]) -> None:
        """Evaluate one batch on the replica and resolve its futures."""
        # One pass forms the batch: what is sent (inputs, trace ids and, when
        # any entry has one, per-entry deadlines, 0.0 = none, so the container
        # can skip what expires in transit), what is measured (the oldest
        # entry's wait) and who is left out (entries already expired).
        t_batch = oldest = time.monotonic()
        drop_expired = self.drop_expired
        inputs, deadlines, carries_deadline = [], [], False
        expired = traced = trace_ids = None  # a set of ids, two lists, when needed
        tracer = self._tracer
        if tracer is not None and tracer.active:
            traced, trace_ids = [], []
        for item in batch:
            deadline = item.deadline
            if deadline is None:
                deadline = 0.0
            elif drop_expired:
                carries_deadline = True
                if t_batch >= deadline:
                    if expired is None:
                        expired = set()
                    expired.add(id(item))
                    _time_out(item)
                    continue
            inputs.append(item.input)
            deadlines.append(deadline)
            if item.enqueue_time < oldest:
                oldest = item.enqueue_time
            trace = item.trace
            if trace is not None and traced is not None:
                traced.append(item)
                if trace.trace_id is not None:  # a shadow owns none: not sent
                    trace_ids.append(trace.trace_id)
        if expired is not None:
            batch = [item for item in batch if id(item) not in expired]
            if not batch:
                # A 100%-expired batch is never dispatched.
                return
        queue_time_ms = (t_batch - oldest) * 1000.0
        span_log: Optional[list] = [] if traced else None
        # A batch sent while its predecessor is still on the replica waits
        # behind it inside the container, so only a batch sent to an idle
        # replica measures what the RPC path itself costs.
        overlapped = self._on_replica > 0
        self._on_replica += 1
        self._overlapped_run = self._overlapped_run + 1 if overlapped else 0
        start = time.perf_counter()
        try:
            response = await self.replica.predict_batch(
                inputs, trace=trace_ids, span_log=span_log,
                deadlines=deadlines if carries_deadline else None,
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
        if traced:
            self._record_batch_spans(traced, span_log, response, t_batch)
        sink = self.late_result_sink
        skipped = set(response.skipped) if response.skipped else None
        outputs = iter(response.outputs)
        for index, item in enumerate(batch):
            future = item.future
            if skipped is not None and index in skipped:
                # The container declined this entry: its deadline expired in
                # transit (the sweeper has usually resolved it already).
                _time_out(item)
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

    def _measure_pipeline(self, eval_ms: float, overhead_ms: Optional[float]) -> None:
        """Fold one answered batch into the averages and re-derive the depth.

        ``overhead_ms`` is None for a batch that overlapped its predecessor:
        its round trip includes the wait behind it, so it says nothing about
        the RPC path.
        """
        self.eval_ms = _ewma(self.eval_ms, eval_ms)
        self._eval_gauge.set(self.eval_ms)
        if overhead_ms is not None:
            self.rpc_overhead_ms = _ewma(self.rpc_overhead_ms, overhead_ms)
            self._overhead_gauge.set(self.rpc_overhead_ms)
        if self.rpc_overhead_ms is None:
            return  # nothing has met an idle replica yet: stay serial
        # One evaluation hides floor(overhead / eval) further batches' trips
        # through the RPC path (the floor on eval: one too short to time).
        self.pipeline_depth = min(
            self.pipeline_window,
            1 + int(self.rpc_overhead_ms // max(self.eval_ms, 1e-6)),
        )
        self._depth_gauge.set(self.pipeline_depth)

    def _record_batch_spans(
        self,
        traced: List[PendingQuery],
        span_log: Optional[list],
        response: Any,
        t_batch: float,
    ) -> None:
        """Stamp the batch's lifecycle spans onto each traced query.

        Built once per batch.  An uncommitted shadow context receives them
        as one shared :class:`BatchSpans`, expanded by :meth:`Tracer.finish`
        only if its trace commits; a context that owns a trace id — sampled,
        or committed by the straggler deadline before its batch came back
        (the record shares the context's span list) — gets its copies now.
        Must run before the batch's futures resolve so ``finish`` sees them.
        """
        t_done = time.monotonic()
        common: List[tuple] = []
        if span_log:
            # batch.assemble covers drain + encode, up to the RPC send.
            common.append(("batch.assemble", t_batch, span_log[0][1], None))
            common.extend(span_log)
        if response.eval_end:
            common.append(("container.eval", response.eval_start, response.eval_end, None))
            common.append(("rpc.recv", response.eval_end, t_done, None))
        shared = BatchSpans(traced, t_batch, common)
        for item in traced:
            trace = item.trace
            if trace.trace_id is None:
                trace.spans.append(shared)
            else:
                trace.spans.extend(shared.spans_of(trace))

    def _handle_failed_batch(self, batch: List[PendingQuery], error: Exception) -> None:
        """Requeue failed queries with retry budget left; fail the rest."""
        self.consecutive_failures += 1
        self.batches_failed += 1
        self._cooldown_due = True
        logger.warning(
            "batch failed on %s: %s",
            self.replica.name,
            error,
            extra={
                "model": str(self.replica.model_id),
                "replica_id": self.replica.replica_id,
                "batch_size": len(batch),
                "error_type": type(error).__name__,
                "consecutive_failures": self.consecutive_failures,
            },
        )
        now = 0.0
        for item in batch:
            if item.future.done():
                continue
            trace = item.trace
            if trace is not None:
                if not now:
                    now = time.monotonic()
                trace.flags |= TRACE_RETRIED
                trace.spans.append(
                    ("batch.retry", now, now, {"error": type(error).__name__})
                )
            if item.attempts < self.max_retries and not self.queue.closed:
                item.attempts += 1
                try:
                    self.queue.put_nowait(item)
                    continue
                except (RuntimeError, asyncio.QueueFull):
                    pass  # queue closed or full under our feet: fall through
            item.future.set_exception(error)
