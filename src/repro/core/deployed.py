"""The model abstraction layer (paper §4): deployed versions behind a cache.

:class:`DeployedModel` is one model version's serving machinery, and the
one record of everything keyed by the version or by one of its replicas.

:class:`ModelLayer` is all of an application's deployed versions behind the
prediction cache.  The selection layer above it asks one thing — the paper's
``Predict(m, x) -> y`` for a set of models — in two steps: the synchronous
cache probe ``cache.fetch_by_hash`` (all a cached input costs) and, for
what that missed, the awaited :meth:`ModelLayer.evaluate`.  It never
learns whether an output came from a queue, a local container or a worker
daemon, or what the overload layer decided on the way.  The dispatchers fill
the cache, one locked pass per answered batch, and :meth:`ModelLayer.close_trace`
tail-captures a query that turned out interesting: nothing is traced for an
unsampled miss until then.
"""

from __future__ import annotations

import asyncio
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.batching.controllers import make_controller
from repro.batching.deadline import DEADLINE_MISS, DeadlineSweeper
from repro.batching.dispatcher import ReplicaDispatcher
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.cache.prediction_cache import PredictionCache
from repro.containers.replica import Replica, ReplicaBuilder
from repro.core import clock
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ContainerError, DeploymentError, OverloadError
from repro.core.metrics import ArmMetrics, MetricScope, MetricsRegistry
from repro.core.types import ModelId, ReplicaHealth
from repro.observability.tracing import TRACE_ERROR, TRACE_STRAGGLER, BatchSpans, Tracer
from repro.overload.breaker import CircuitBreaker
from repro.overload.control import UNGUARDED, Degraded

#: How long a closing version waits for its dispatchers to drain its queue.
DRAIN_TIMEOUT_S = 10.0


class DeployedModel:
    """One deployed model version: the record of everything keyed by it.

    The batching queue and one dispatcher per replica — the dispatchers *are*
    the membership: a replica belongs to the version exactly while a
    dispatcher holds it.  And, so that they leave with the version, its
    circuit breaker (built by :meth:`OverloadControl.guard`), its canary-arm
    handles and, through :attr:`metrics`, every metric name registered on
    its behalf.  Each dispatcher carries its replica's health record and
    recovery task the same way.  :meth:`ModelLayer.retire` is the only way a
    version leaves, :meth:`_release_replica` the only way a replica does.
    """

    def __init__(
        self,
        deployment: ModelDeployment,
        model_id: ModelId,
        build_replica: ReplicaBuilder,
        metrics: MetricsRegistry,
        make_dispatcher: Callable[["DeployedModel", Replica], ReplicaDispatcher],
    ) -> None:
        self.deployment = deployment
        self.model_id = model_id
        #: Scope of the application's registry: what this version registered.
        self.metrics = MetricScope(metrics)
        #: The version's circuit breaker, when it (or the application) has one.
        self.breaker: Optional[CircuitBreaker] = None
        self.queue = BatchingQueue(
            name=str(model_id), maxsize=deployment.batching.max_queue_depth
        )
        self._build_replica = build_replica
        self._make_dispatcher = make_dispatcher
        self._next_replica_id = 0
        self.dispatchers: List[ReplicaDispatcher] = []
        # Every replica is built before any dispatcher registers a metric: a
        # builder error (no live worker) then leaves nothing behind.
        for replica in [self._new_replica() for _ in range(deployment.num_replicas)]:
            self._attach(replica)

    @property
    def replicas(self) -> List[Replica]:
        return [dispatcher.replica for dispatcher in self.dispatchers]

    def _new_replica(self) -> Replica:
        """Build (not start) one more replica; it joins at :meth:`_attach`.

        Replica ids increase monotonically across the version's lifetime so
        a newly added replica is never confused with a removed one in
        metrics or health records.
        """
        replica = self._build_replica(self._next_replica_id, ())
        self._next_replica_id += 1
        return replica

    def _attach(self, replica: Replica) -> ReplicaDispatcher:
        dispatcher = self._make_dispatcher(self, replica)
        self.dispatchers.append(dispatcher)
        return dispatcher

    @cached_property
    def arm(self) -> ArmMetrics:
        """Traffic attribution handles, registered when a canary first needs them."""
        return self.metrics.arm(str(self.model_id))

    async def start(self) -> None:
        """Start every replica, then every dispatcher."""
        try:
            for replica in self.replicas:
                await replica.start()
        except BaseException:
            # Replicas that did start must not outlive the failed bring-up.
            await self._stop_replicas()
            raise
        for dispatcher in self.dispatchers:
            dispatcher.start()

    async def _stop_replicas(self) -> None:
        for replica in self.replicas:
            await replica.stop()

    async def stop(self, drain: bool = False) -> None:
        """Close the queue, stop the dispatchers, then the replicas.

        With ``drain`` the version's own dispatchers first finish the queued
        work — in-flight queries complete.  The wait is event-driven (the
        queue wakes us when the last item is handed to a dispatcher); the
        timeout bounds teardown when nothing can drain the queue any more
        (e.g. every dispatcher already quarantined).
        """
        self.queue.close()
        if drain:
            await self.queue.wait_empty(timeout_s=DRAIN_TIMEOUT_S)
        for dispatcher in self.dispatchers:
            await dispatcher.stop()
        await self._stop_replicas()

    async def scale_to(self, num_replicas: int, running: bool) -> int:
        """Grow or shrink the live version; returns the new replica count.

        Scaling up builds fresh replicas through the placement's builder and
        attaches a new dispatcher per replica to the existing queue; a
        replica that cannot start never joins.  Scaling down detaches
        dispatchers one at a time — each finishes its in-flight batch, and
        queries still waiting in the shared queue are picked up by the
        surviving replicas — before the spare replicas are stopped.
        """
        while len(self.dispatchers) < num_replicas:
            replica = self._new_replica()
            if running:
                await replica.start()
            dispatcher = self._attach(replica)
            if running:
                dispatcher.start()
        while len(self.dispatchers) > num_replicas:
            await self._release_replica(self.dispatchers[-1])
        return len(self.dispatchers)

    async def _release_replica(self, dispatcher: ReplicaDispatcher) -> None:
        """The only way a replica leaves for good.

        Its recovery ends, its dispatcher finishes the in-flight batch and
        goes (the health record with it), and the replica stops.
        """
        if len(self.dispatchers) <= 1:
            raise ContainerError(str(self.model_id), "cannot remove the last replica")
        await end_recovery(dispatcher)
        await dispatcher.stop()
        self.dispatchers.remove(dispatcher)
        await dispatcher.replica.stop()

    async def replace_replica(self, dispatcher: ReplicaDispatcher) -> Replica:
        """Swap a (presumed sick) replica for a fresh, unstarted one with its id.

        The fresh replica is built with the old one as the ``avoid`` hint, so
        a placement that spans hosts migrates off the sick replica's, and is
        returned unstarted so the caller can start and health-check it before
        its dispatcher runs again.  Only the replica leaves: its dispatcher,
        and so its health record and ``restarts``/``quarantines`` history,
        now belong to the replacement.  Builder errors propagate with the
        old replica still in place: :class:`RpcError` is the retryable class
        (e.g. no live worker), which health-driven recovery retries.
        """
        sick = dispatcher.replica
        fresh = self._build_replica(sick.replica_id, (sick,))
        await sick.stop()
        dispatcher.replica = fresh
        return fresh


def statuses_for(records: Iterable[DeployedModel], model_key: str) -> List[ReplicaHealth]:
    """Health records of every live replica of one model version key."""
    return [
        dispatcher.health
        for record in records
        for dispatcher in record.dispatchers
        if dispatcher.health.model_key == model_key
    ]


def quarantines_for(records: Iterable[DeployedModel], model_key: str) -> int:
    """Total quarantines recorded against one model version's live replicas."""
    return sum(status.quarantines for status in statuses_for(records, model_key))


def failure_of(waited: Optional[Dict[str, PendingQuery]]) -> Optional[ContainerError]:
    """Why a query none of whose models answered failed, if not by time.

    None when some entry missed its deadline (or none was sent): that is a
    timeout.  Otherwise every entry failed, and the query's error is a
    :class:`ContainerError` caused by the first entry's.
    """
    first = None
    for model_key, item in (waited or {}).items():
        future = item.future
        if future.cancelled() or not future.done():
            continue
        error = future.exception()
        if error is None:
            return None  # DEADLINE_MISS
        if first is None:
            first = ContainerError(model_key, f"every selected model failed ({error})")
            first.__cause__ = error
    return first


async def cancel_until_gone(task: Optional[asyncio.Task]) -> None:
    """Cancel ``task`` and wait until it has ended.

    ``asyncio.wait_for`` before 3.12 swallows a cancellation that lands as its
    future completes (a health probe answering just then): ask until it has gone.
    """
    while task is not None and not task.done():
        task.cancel()
        await asyncio.wait([task], timeout=0.05)


async def end_recovery(dispatcher: ReplicaDispatcher) -> None:
    """Cancel the task restarting this dispatcher's replica and wait it out."""
    task, dispatcher.recovery = dispatcher.recovery, None
    await cancel_until_gone(task)


class ModelLayer:
    """Every deployed version of one application, behind the prediction cache.

    ``placement(deployment, model_id) -> ReplicaBuilder`` decides where each
    deployment's replicas live.
    """

    def __init__(
        self,
        config: ClipperConfig,
        metrics: MetricsRegistry,
        tracer: Tracer,
        placement: Callable[[ModelDeployment, ModelId], ReplicaBuilder],
    ) -> None:
        self._config = config
        self._metrics = metrics
        self._tracer = tracer
        self._placement = placement
        self.cache = PredictionCache(capacity=config.cache_size)
        #: Deployed versions by ``"name:version"`` key, serving and staged.
        self.versions: Dict[str, DeployedModel] = {}
        # Straggler deadlines wait in one FIFO behind one timer.
        self._sweeper = DeadlineSweeper()
        self._straggler_mitigation = config.straggler_mitigation
        self._straggler_counter = metrics.counter("predict.stragglers")
        self._container_error_counter = metrics.counter("predict.container_errors")
        self._unavailable_counter = metrics.counter("predict.unavailable_models")
        self._traced = tracer.active

    def deploy(self, deployment: ModelDeployment) -> DeployedModel:
        """Place one version's replicas and register its record (not started)."""
        model_id = ModelId(deployment.name, deployment.version)
        key = str(model_id)
        if key in self.versions:
            raise DeploymentError(f"model '{key}' is already deployed")
        record = self.versions[key] = DeployedModel(
            deployment,
            model_id,
            self._placement(deployment, model_id),
            self._metrics,
            self._make_dispatcher,
        )
        return record

    async def retire(self, key: str) -> DeployedModel:
        """The only way a version leaves: an undeploy, a bring-up that failed.

        The key, the metric names registered for it and its cached answers
        go in one synchronous step, so a redeploy under the same key can
        neither meet nor lose them; breaker, arm handles and health records
        go with the record, and its draining dispatchers fill no cache.
        Recovery tasks are then cancelled and waited out.  The caller stops
        the returned record or fails its queue.
        """
        record = self.versions.pop(key)
        record.metrics.close()
        for dispatcher in record.dispatchers:
            dispatcher.cache = None
        self.cache.drop(key)
        for dispatcher in record.dispatchers:
            await end_recovery(dispatcher)
        return record

    def _make_dispatcher(
        self, record: DeployedModel, replica: Replica
    ) -> ReplicaDispatcher:
        controller = make_controller(
            record.deployment.batching, slo_ms=self._config.latency_slo_ms
        )
        # The dispatcher fills the cache with every output it is answered,
        # a straggler's too, so the feedback path can join against it
        # (§4.2 / §5.2.2).
        return ReplicaDispatcher(
            replica=replica,
            queue=record.queue,
            controller=controller,
            batch_wait_timeout_ms=record.deployment.batching.batch_wait_timeout_ms,
            metrics=record.metrics,
            max_retries=record.deployment.max_batch_retries,
            cache=self.cache,
            tracer=self._tracer,
        )

    async def evaluate(
        self,
        misses: List[str],
        predictions: Dict[str, Any],
        request: Any,
        input_hash: str,
        guard: Any,
        deadline: Optional[float] = None,
        sampled: Optional[Any] = None,
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, PendingQuery]], Optional[Exception]]:
        """Obtain what the cache probe missed: submit → await.

        With ``cache.fetch_by_hash``, the one routine under both ``Clipper.predict``
        and ``Clipper.feedback`` — the paper's ``Predict(m, x) -> y`` for a
        set of models.  Awaited only when something missed or the query is
        sampled (``sampled``, its trace context), whose ``cache.lookup`` and
        ``model.wait`` spans are stamped here; it suspends only to wait for
        the outputs (and, for work that is never shed, for room on a full
        queue).  ``request`` is the :class:`Query` or :class:`Feedback`
        carrying the input; ``guard`` the application's
        :class:`~repro.overload.control.OverloadControl`, or
        :data:`~repro.overload.control.UNGUARDED`.  ``deadline`` bounds a query that
        must answer by its SLO (None: wait for every model).
        The dispatchers put the outputs in the cache.

        Returns ``(predictions, waited, shed)``: ``predictions`` with the
        outputs obtained added, by model key; the queue entries the query
        waited on, by model key (None when it submitted none), which
        :meth:`close_trace` reads; and, when the overload layer shed the
        query, the exception that says how (the predictions are then
        empty).  The query's ticket is settled on every way out,
        cancellation included.
        """
        if not misses:
            if sampled is not None:  # its last span so far ends where the lookup began
                sampled.add("cache.lookup", sampled.spans[-1][2], clock.now())
            return predictions, None, None

        ticket = UNGUARDED  # nothing to settle until the query is admitted
        waited: Dict[str, PendingQuery] = {}
        try:
            ticket = guard.admit(misses[0], request.query_id)
            if not self._straggler_mitigation:
                deadline = None
            loop = asyncio.get_running_loop()
            # Where the lookup stage ends and every entry's queue wait begins.
            t_wait = clock.now()
            for model_key in misses:
                if not ticket.allow(model_key):
                    continue
                # Positional, in field order; ``0`` is ``attempts``.
                item = PendingQuery(
                    request.input, loop.create_future(), t_wait, deadline,
                    request.query_id, input_hash, 0, sampled,
                )
                try:
                    full = self._submit(model_key, item, ticket)
                except DeploymentError:
                    # Undeployed between selection and submission (a live
                    # management op): missing, rather than a failed query.
                    self._unavailable_counter.increment()
                    continue
                if full is not None:
                    # Work that is never shed waits for a slot.
                    await full.put(item)
                if deadline is not None:
                    self._sweeper.register(item.future, deadline, loop)
                waited[model_key] = item
            if sampled is not None:
                sampled.add("cache.lookup", sampled.spans[-1][2], t_wait)
            # Await each pending model future directly.  With straggler
            # mitigation on every future resolves by the deadline (the
            # sweeper delivers DEADLINE_MISS), so the sequential loop still
            # returns then, with no waiter futures or per-query timers.
            for model_key, item in waited.items():
                future = item.future
                try:
                    output = await future
                except asyncio.CancelledError:
                    # Cancelling this task also cancels the future it awaits,
                    # so only the task's own state tells the two cases apart.
                    if future.cancelled() and not asyncio.current_task().cancelling():
                        continue  # the queue entry was abandoned, not this task
                    raise
                except Exception:
                    # Container/RPC failure.
                    self._container_error_counter.increment()
                    ticket.failed(model_key)
                    continue
                if output is DEADLINE_MISS:
                    # Straggler, whether the sweeper, the dispatcher or a
                    # drop-oldest shed expired the entry: rendered without
                    # this model (§5.2.2).  A late result still lands in the
                    # cache: the dispatcher fills it with whatever its
                    # container answers.
                    self._straggler_counter.increment()
                    ticket.failed(model_key, timeout=True)
                    continue
                ticket.succeeded(model_key)
                predictions[model_key] = output
            if waited and sampled is not None:
                sampled.spans.append(("model.wait", t_wait, clock.now(), None))
        except (OverloadError, Degraded) as shed:
            # Refused admission, or a bounded queue was full and the policy
            # sheds: models already submitted finish on their own and
            # fill the cache.
            return {}, waited, shed
        finally:
            ticket.settle()
        return predictions, waited, None

    def close_trace(
        self,
        sampled: Optional[Any],
        waited: Optional[Dict[str, PendingQuery]],
        answered: Dict[str, Any],
        start: float,
        slo_missed: bool,
        default_used: bool,
        error: bool,
        query_id: Optional[int],
    ) -> Optional[str]:
        """Close one query's trace: the id it committed under, or None.

        A sampled query's trace always commits.  An unsampled one that
        waited on containers is tail-captured: only when it turned out
        interesting — SLO miss, default output, error, or an entry that was
        retried or not answered — is a shadow built from what its queue
        entries were stamped with (:meth:`Tracer.shadow`) and committed.
        Either way an entry that errored or missed its straggler deadline
        flags the trace, the latter with a ``deadline.miss`` span.
        """
        ctx = sampled
        if ctx is None:
            if not self._traced:
                return None
            for model_key, item in waited.items():
                if model_key not in answered or type(item.trace) is not BatchSpans:
                    break  # a straggler, an error or a retry
            else:
                if not (slo_missed or default_used or error):
                    return None  # the common case: nothing allocated
            ctx = self._tracer.shadow(start, waited.values())
            t_wait = next(iter(waited.values())).enqueue_time
            ctx.spans.append(("model.wait", t_wait, clock.now(), None))
        for model_key, item in (waited or {}).items():
            future = item.future
            if model_key in answered or not future.done() or future.cancelled():
                continue
            if future.exception() is not None:
                ctx.flags |= TRACE_ERROR
            elif future.result() is DEADLINE_MISS:
                ctx.flags |= TRACE_STRAGGLER
                ctx.add("deadline.miss", item.deadline, item.deadline, {"model": model_key})
        return self._tracer.finish(ctx, slo_missed, default_used, error, query_id)

    def _submit(
        self, model_key: str, item: PendingQuery, ticket: Any
    ) -> Optional[BatchingQueue]:
        """Enqueue ``item`` without waiting; None once it is queued.

        A full bounded queue is the ticket's call: room was made (drop-oldest
        evicted an entry), the query is shed (raises), or — work that is
        never shed — the queue is returned for the caller to wait on.
        """
        record = self.versions.get(model_key)
        if record is None:
            raise DeploymentError(f"selection policy chose unknown model '{model_key}'")
        try:
            record.queue.put_nowait(item)
        except asyncio.QueueFull:
            if not ticket.make_room(model_key, item.query_id):
                return record.queue
            record.queue.put_nowait(item)
        return None
