"""Per-replica batch dispatchers.

One dispatcher task runs for every container replica (paper §4.4.1: adaptive
batching is performed independently per replica).  The loop is:

1. Wait until the replica can take another batch (a free pipeline slot).
2. Ask the replica's batch-size controller for the current maximum size and
   drain up to that many queries from the model's batching queue, optionally
   waiting ``batch_wait_timeout_ms`` for more under light load (§4.3.2).
3. Send the batch over RPC to the container, measure the evaluation latency.
4. Feed the (size, latency) observation back into the controller, fill the
   prediction cache with every output the container answered (one locked
   pass per batch, array views copied once) and resolve each query's future.

An entry whose deadline has passed when its batch forms is left out, and
one the container skipped (it expired in transit) gets no output: both
resolve :data:`~repro.batching.deadline.DEADLINE_MISS`, the straggler
sweeper's outcome, so the engine counts either as a straggler.

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
backs off briefly (:data:`FAILURE_COOLDOWN_MS`) so a dead replica does not
spin stealing work from healthy ones while the health monitor converges.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional, Set

import numpy as np

from repro.batching.controllers import BatchSizeController
from repro.batching.deadline import expire
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.replica import Replica
from repro.core import clock
from repro.core.exceptions import ContainerError, RpcError
from repro.core.metrics import BATCH_SIZE_BUCKETS, MetricsRegistry
from repro.core.types import ReplicaHealth
from repro.observability.logging import get_logger
from repro.observability.tracing import TRACE_RETRIED, BatchSpans, TraceContext

logger = get_logger("batching.dispatcher")

#: Upper bound on batches in flight per replica.  What a replica is allowed
#: under it is measured (see "Pipelining" above), so the bound is not a
#: deployment option; tests patch it to drive the loop at other depths.
PIPELINE_WINDOW = 2
#: How long the loop backs off after a failed batch before sending another.
FAILURE_COOLDOWN_MS = 20.0
#: Weight of a new sample in the evaluation / RPC-overhead moving averages.
_EWMA_WEIGHT = 0.125
#: After this many consecutive overlapped batches the loop lets the pipeline
#: drain once, so the next batch meets an idle replica and re-measures the
#: RPC overhead a saturated pipeline would otherwise never see again.
_REMEASURE_EVERY = 32


def _ewma(average: Optional[float], sample: float) -> float:
    if average is None:
        return sample
    return average + _EWMA_WEIGHT * (sample - average)


def _detached(outputs: list) -> list:
    """A batch's outputs, safe to keep in the prediction cache: a decoded
    ndarray is a view that would pin the whole response frame, so views
    are copied; owning arrays and scalars pass through."""
    if not any(issubclass(kind, np.ndarray) for kind in {*map(type, outputs)}):
        return outputs
    return [
        output.copy() if isinstance(output, np.ndarray) and output.base is not None else output
        for output in outputs
    ]


class ReplicaDispatcher:
    """Drains a batching queue into one container replica."""

    def __init__(
        self,
        replica: Replica,
        queue: BatchingQueue,
        controller: BatchSizeController,
        batch_wait_timeout_ms: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        max_retries: int = 0,
        cache: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.replica = replica
        self.queue = queue
        self.controller = controller
        self.batch_wait_timeout_ms = batch_wait_timeout_ms
        self.metrics = metrics or MetricsRegistry()
        self.max_retries = max_retries
        #: Batches the loop currently allows in flight (at most
        #: :data:`PIPELINE_WINDOW`), re-derived after every answered batch
        #: from the two moving averages below.
        self.pipeline_depth = 1
        #: Moving averages (ms) of the container's evaluation time and of
        #: what the RPC path adds to it; None until first measured.
        self.eval_ms: Optional[float] = None
        self.rpc_overhead_ms: Optional[float] = None
        #: The engine's prediction cache (None: no fill, as once its version
        #: is retired): every answered entry's output goes in, whatever
        #: became of its future.
        self.cache = cache
        self._model_key = str(replica.model_id)
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
        self._batch_size_hist = self.metrics.histogram(f"{prefix}.batch_size", BATCH_SIZE_BUCKETS)
        self._throughput_counter = self.metrics.counter(f"{prefix}.throughput")
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
        #: engine).  With tracing on every batch is stamped, since any query
        #: may turn out interesting.
        self._tracer = tracer
        self._traced = tracer is not None and tracer.active

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
                    if self._running:
                        batch = self._release_for_cooldown(batch)
                        await asyncio.sleep(FAILURE_COOLDOWN_MS / 1000.0)
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
        # One pass forms the batch: what is sent (inputs and, when any entry
        # has one, per-entry deadlines, 0.0 = none, so the container can skip
        # what expires in transit), what is measured (the oldest entry's wait)
        # and who is left out (entries already expired).
        t_batch = oldest = clock.now()
        inputs, deadlines, carries_deadline = [], [], False
        expired = None  # a set of ids, when needed
        for item in batch:
            deadline = item.deadline
            if deadline is None:
                deadline = 0.0
            else:
                carries_deadline = True
                if t_batch >= deadline:
                    if expired is None:
                        expired = set()
                    expired.add(id(item))
                    expire(item.future)
                    continue
            inputs.append(item.input)
            deadlines.append(deadline)
            if item.enqueue_time < oldest:
                oldest = item.enqueue_time
        if expired is not None:
            batch = [item for item in batch if id(item) not in expired]
            if not batch:
                # A 100%-expired batch is never dispatched.
                return
        queue_time_ms = (t_batch - oldest) * 1000.0
        span_log: Optional[list] = [] if self._traced else None
        # A batch sent while its predecessor is still on the replica waits
        # behind it inside the container, so only a batch sent to an idle
        # replica measures what the RPC path itself costs.
        overlapped = self._on_replica > 0
        self._on_replica += 1
        self._overlapped_run = self._overlapped_run + 1 if overlapped else 0
        start = clock.now()
        try:
            response = await self.replica.predict_batch(
                inputs, span_log=span_log, deadlines=deadlines if carries_deadline else None
            )
        except (RpcError, ContainerError) as exc:
            self._handle_failed_batch(batch, exc)
            return
        finally:
            self._on_replica -= 1
        latency_ms = (clock.now() - start) * 1000.0

        eval_ms = response.container_latency_ms
        if overlapped and self.rpc_overhead_ms is not None:
            self.controller.observe(len(batch), eval_ms + self.rpc_overhead_ms)
        else:
            self.controller.observe(len(batch), latency_ms)
        self._batch_latency_hist.observe(latency_ms)
        self._batch_size_hist.observe(len(batch))
        self._throughput_counter.increment(len(batch))
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
        if span_log is not None:
            self._record_batch_spans(batch, span_log, response, t_batch)
        answered = batch
        if response.skipped:
            # The container declined these entries: their deadline expired
            # in transit (the sweeper has usually resolved them already).
            skipped, answered = set(response.skipped), []
            for index, item in enumerate(batch):
                if index in skipped:
                    expire(item.future)
                else:
                    answered.append(item)
        outputs = _detached(response.outputs)
        if self.cache is not None:
            self.cache.put_by_hash(
                self._model_key, [item.input_hash for item in answered], outputs
            )
        for item, output in zip(answered, outputs):
            if not item.future.done():
                item.future.set_result(output)

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
            PIPELINE_WINDOW,
            1 + int(self.rpc_overhead_ms // max(self.eval_ms, 1e-6)),
        )
        self._depth_gauge.set(self.pipeline_depth)

    def _record_batch_spans(
        self,
        batch: List[PendingQuery],
        span_log: Optional[list],
        response: Any,
        t_batch: float,
    ) -> None:
        """Stamp the batch's lifecycle spans onto each entry sent.

        Built once per batch.  An entry without a context receives them as
        one shared :class:`BatchSpans`, expanded by :meth:`Tracer.shadow`
        only if its query turns out interesting; a context — sampled, a
        retry's, or committed by the straggler deadline before its batch
        came back (the record shares the context's span list) — gets its
        copies now.  Must run before the batch's futures resolve, so the
        query finishing sees them.
        """
        t_done = clock.now()
        common: List[tuple] = []
        if span_log:
            # batch.assemble covers drain + encode, up to the RPC send.
            common.append(("batch.assemble", t_batch, span_log[0][1], None))
            common.extend(span_log)
        if response.eval_end:
            common.append(("container.eval", response.eval_start, response.eval_end, None))
            common.append(("rpc.recv", response.eval_end, t_done, None))
        shared = BatchSpans(t_batch, common)
        for item in batch:
            trace = item.trace
            if trace is None:
                item.trace = shared
            else:
                trace.spans.extend(shared.spans_of(item))

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
            if type(trace) is not TraceContext:
                # An unsampled entry's retry makes its query interesting: the
                # entry gets a context of its own, which the query's shadow
                # folds in.
                trace = item.trace = (
                    self._tracer.shadow(item.enqueue_time) if self._traced else None
                )
            if trace is not None:
                if not now:
                    now = clock.now()
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
