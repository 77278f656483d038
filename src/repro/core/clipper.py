"""The Clipper serving engine.

This module wires the two layers of the paper's architecture together for a
single application:

* the **model abstraction layer** — a prediction cache (§4.2), one adaptive
  batching queue per deployed model with one dispatcher per container
  replica (§4.3–4.4), and the RPC plumbing to the containers — and
* the **model selection layer** — a pluggable selection policy with
  per-context state (§5), straggler mitigation driven by the latency SLO
  (§5.2.2), and the feedback path that joins application feedback with
  cached predictions to update the policy.

:class:`Clipper` itself is the selection layer; the model abstraction layer
is its :class:`~repro.core.deployed.ModelLayer`, and what passes between
them — under both ``predict`` and ``feedback`` — is "each of these models'
output for this input", asked in two steps: the synchronous
:meth:`~repro.cache.prediction_cache.PredictionCache.fetch_by_hash` (one probe for all models)
and, only for what it missed, the awaited
:meth:`~repro.core.deployed.ModelLayer.evaluate` (submit → await; the
dispatchers fill the cache).  A cached query is therefore one synchronous
pass inside the coroutine its caller awaits.  Two seams keep that path ignorant of where and
whether work runs: a **placement** callable given at construction decides
where each deployment's replicas are built (in this process by default, on
worker daemons in the cluster), and one
:class:`~repro.overload.control.OverloadControl` owns every admission, shed and
circuit-breaker decision, handing each query that leaves the cache a ticket
that ``evaluate`` settles on every exit path.

The public surface is intentionally small::

    clipper = Clipper(ClipperConfig(app_name="demo", latency_slo_ms=20))
    clipper.deploy_model(ModelDeployment("svm", make_svm_container))
    await clipper.start()
    prediction = await clipper.predict(Query(app_name="demo", input=x))
    await clipper.feedback(Feedback(app_name="demo", input=x, label=y))
    await clipper.stop()

``deploy_model`` registers a version before ``start``; on a started
instance the one way in is the awaited ``deploy_model_async``, which brings
the version up before it returns (the management plane's entry point).
When none of a query's models answers, ``predict`` tells a deadline miss
(:class:`~repro.core.exceptions.PredictionTimeoutError`, 504) from failed
containers (:class:`~repro.core.exceptions.ContainerError`, 502).

Runtime mutability (the management plane's half of the paper's architecture)
is layered on top without touching the hot path: every deployed *version* of
a model keeps its own serving machinery (replicas, batching queue,
dispatchers), while **which version serves each query** is owned entirely by
the :class:`~repro.routing.table.RoutingTable` at ``clipper.routing`` — an
immutable, atomically swapped map from model name to a weighted
:class:`~repro.routing.split.TrafficSplit` over versions.  Stable serving is
the degenerate 100/0 split; a **canary rollout** shifts a deterministic,
seeded fraction of routing keys onto a staged version while per-arm
latency/error metrics accumulate for the promotion decision.  The routing
verbs (``activate``, ``start_canary``, ``adjust_canary``, ``promote``,
``abort``, ``rollback``, ``restore``) are the table's own; operators drive
them through :class:`~repro.management.frontend.ManagementFrontend`, which
records each one durably.  Selection-policy state is namespaced by the
routed serving set, so the state learned for a version survives its
retirement and is picked up again on rollback; the table refuses a version
that is not deployed, and every swap hands the engine the keys it made
unreachable, whose state is then dropped.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.containers.replica import ReplicaBuilder, place_locally
from repro.core import clock
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.deployed import DeployedModel, ModelLayer, failure_of
from repro.core.exceptions import (
    ClipperError,
    DeploymentError,
    OverloadError,
    PredictionTimeoutError,
    ValidationError,
)
from repro.core.metrics import AnsweredMetrics, MetricsRegistry
from repro.core.types import Feedback, ModelId, Prediction, Query
from repro.observability.tracing import Tracer
from repro.overload.control import UNGUARDED, OverloadControl
from repro.routing.table import RoutePlan, RoutingTable, parse_namespace_keys
from repro.selection.manager import SelectionStateManager
from repro.selection.policy import make_policy
from repro.state.kvstore import KeyValueStore


class Clipper:
    """A Clipper serving instance for one application."""

    def __init__(
        self,
        config: Optional[ClipperConfig] = None,
        state_store: Optional[KeyValueStore] = None,
        placement: Callable[[ModelDeployment, ModelId], ReplicaBuilder] = place_locally,
    ) -> None:
        self.config = config or ClipperConfig()
        self.metrics = MetricsRegistry()
        # The tracing layer follows the metric-handle discipline below:
        # ``begin`` is bound once, and an untraced query's total tracing cost
        # is that one call returning None plus per-site ``is not None`` checks.
        self.tracer = Tracer(self.config.tracing, metrics=self.metrics)
        self._trace_begin = self.tracer.begin
        # The model abstraction layer.  ``placement`` returns the builder of
        # each deployment's replicas — where they live; the cluster ingress
        # passes one that places on workers.
        self._layer = ModelLayer(self.config, self.metrics, self.tracer, placement)
        self.cache = self._layer.cache
        self._models = self._layer.versions
        self.state_store = state_store or KeyValueStore()
        # All version-resolution lives in the routing table: which version of
        # each model name serves traffic (possibly split across a canary),
        # and the previously-active version kept for rollback.  Versions
        # deployed while another is active stay staged (machinery warm, no
        # traffic) until a rollout or canary routes to them.
        self.routing = RoutingTable(
            arms=lambda key: self._models[key].arm,
            scope=self.config.app_name,
            swapped=self._prune_selection_state,
        )
        self._admin_lock = asyncio.Lock()
        # One selection-state manager per routed serving-set combination,
        # keyed by the routing plan's namespace and built lazily.
        self._selection_managers: Dict[str, SelectionStateManager] = {}
        self._started = False
        # Metric handles are resolved once here instead of per call: registry
        # lookups take a lock and a dict probe, which is measurable on the
        # cache-hit path that does no other work.
        self._answered = AnsweredMetrics(self.metrics, "predict")
        self._default_counter = self.metrics.counter("predict.defaults")
        self._late_counter = self.metrics.counter("predict.late")
        self._feedback_counter = self.metrics.counter("feedback.count")
        #: Every admission / shed / circuit-breaker decision.  Consulted
        #: only when a query leaves the cache, so the cache-hit fast path is
        #: identical to an instance with no overload control configured.
        self.overload = OverloadControl(self.config, self.metrics, self.tracer)
        self.overload.versions = self._models

    # -- deployment -----------------------------------------------------------

    def _register_model(
        self, deployment: ModelDeployment, activate: Optional[bool]
    ) -> Tuple[DeployedModel, Optional[tuple]]:
        """Build and register one model version's serving machinery (not started).

        Returns the record and, when registering changed the name's routing,
        the ``(split, rollback target)`` it had before — what
        :meth:`deploy_model_async` reinstalls if the version then fails to
        start.
        """
        record = self._layer.deploy(deployment)
        self.overload.guard(record)
        name, key = deployment.name, str(record.model_id)
        if activate is None:
            # Default: the first version of a name serves immediately; later
            # versions come up staged and wait for an explicit rollout.
            activate = self.routing.active_key(name) is None
        if not activate:
            return record, None
        routing_before = (self.routing.split_for(name), self.routing.previous_key(name))
        self.routing.activate(name, key)
        return record, routing_before

    def deploy_model(
        self, deployment: ModelDeployment, activate: Optional[bool] = None
    ) -> ModelId:
        """Register a model version before :meth:`start`, which brings it up.

        The first version of a model name serves once started; a later
        version is *staged* (warm but not serving) until ``routing.activate``
        or a canary routes traffic to it, unless ``activate=True`` forces an
        immediate switch.  Returns the assigned :class:`ModelId`.  On a
        started instance it registers nothing and raises: there
        :meth:`deploy_model_async` is the one bring-up, awaited, so a failed
        start reaches its caller.
        """
        if self._started:
            raise DeploymentError(
                f"cannot deploy '{deployment.name}' on a started instance with "
                "deploy_model: await deploy_model_async"
            )
        return self._register_model(deployment, activate)[0].model_id

    async def deploy_model_async(
        self, deployment: ModelDeployment, activate: Optional[bool] = None
    ) -> ModelId:
        """Register a model version and, on a started instance, bring it up.

        This is the management plane's entry point: when it returns, the new
        version's replicas and dispatchers are running (on a started
        instance) and the version is serving or staged as requested.  When a
        replica fails to start the error propagates and the deployment is
        unwound, so the same key can be deployed again.
        """
        async with self._admin_lock:
            record, routing_before = self._register_model(deployment, activate)
            if not self._started:
                return record.model_id
            try:
                await record.start()
            except BaseException as error:
                # Left registered, a version whose replicas never started
                # would keep receiving routed queries that nothing dispatches
                # (each one a straggler) and could not be redeployed.
                key = str(record.model_id)
                if routing_before is not None:
                    self.routing.restore(record.model_id.name, *routing_before)
                await self._layer.retire(key)
                # Whatever queued up while the version looked deployed fails now.
                record.queue.fail_all(
                    DeploymentError(f"model '{key}' failed to start: {error}")
                )
                raise
            return record.model_id

    async def undeploy_model(self, model: str) -> ModelId:
        """Remove a model version from a (possibly running) instance.

        ``model`` is a ``"name:version"`` key, or a bare name resolving to
        its active version.  The version is first removed from the routing
        table (no new queries route to it — undeploying an in-flight canary
        arm aborts that rollout first), then its batching queue is closed
        and drained by its own dispatchers — in-flight queries complete —
        before replicas are stopped.  The last serving model of a started
        instance cannot be undeployed.
        """
        async with self._admin_lock:
            key = self.routing.resolve_key(model, self._models)
            record = self._models[key]
            name = record.model_id.name
            if self.routing.canary_key(name) == key:
                # Undeploying the canary arm is an implicit abort: traffic
                # snaps back to the stable arm before the teardown.
                self.routing.abort(name)
            if self.routing.active_key(name) == key:
                remaining = [n for n in self.routing.names() if n != name]
                if self._started and not remaining:
                    raise DeploymentError(
                        f"cannot undeploy '{key}': it is the last serving model"
                    )
                self.routing.forget(name)
            elif self.routing.previous_key(name) == key:
                self.routing.drop_previous(name)
            await self._layer.retire(key)
            if self._started:
                await record.stop(drain=True)
            return record.model_id

    async def set_num_replicas(self, model: str, num_replicas: int) -> int:
        """Grow or shrink a model version's live replicas; returns the new count.

        See :meth:`DeployedModel.scale_to` for how replicas and their
        dispatchers join and leave a live queue.
        """
        if num_replicas < 1:
            raise DeploymentError("num_replicas must be >= 1")
        async with self._admin_lock:
            record = self._models[self.routing.resolve_key(model, self._models)]
            return await record.scale_to(num_replicas, running=self._started)

    def deployed_models(self) -> List[ModelId]:
        """Ids of every deployed model version (serving and staged)."""
        return [record.model_id for record in self._models.values()]

    def serving_models(self) -> List[ModelId]:
        """Ids of the versions currently receiving traffic (all split arms)."""
        return [self._models[key].model_id for key in self.routing.serving_keys()]

    def model_records(self) -> List[DeployedModel]:
        """Internal serving records (used by the management plane)."""
        return list(self._models.values())

    def model_record(self, model: str) -> DeployedModel:
        """The serving record for one model key or bare name."""
        return self._models[self.routing.resolve_key(model, self._models)]

    @property
    def is_started(self) -> bool:
        return self._started

    # -- selection state ------------------------------------------------------

    def _selection_manager_for(self, plan: RoutePlan) -> SelectionStateManager:
        """The (lazily built) selection-state manager for one routing plan.

        The store namespace comes from the plan's serving-set combination, so
        each combination keeps its own policy state: a rollout starts the new
        version's state fresh while the retired version's state survives in
        its old namespace, a rollback picks that state right back up, and a
        canary's mixed combination learns independently of the stable one.
        """
        manager = self._selection_managers.get(plan.namespace)
        if manager is None:
            if not plan.serving_keys:
                raise ClipperError("no models are deployed")
            manager = SelectionStateManager(
                policy=make_policy(self.config.selection_policy),
                model_ids=[self._models[key].model_id for key in plan.serving_keys],
                store=self.state_store,
                namespace=plan.namespace,
            )
            self._selection_managers[plan.namespace] = manager
        return manager

    @property
    def selection_manager(self) -> SelectionStateManager:
        """The selection-state manager of the all-stable-arms serving set."""
        return self._selection_manager_for(self.routing.default_plan())

    def _prune_selection_state(self, retired: FrozenSet[str]) -> None:
        """Drop the selection state a routing swap made unreachable.

        The routing table's swap hook: ``retired`` holds the keys the swap
        took out of every split arm and rollback pointer (an abort's canary,
        a rollout's old rollback target, an undeployed version's routes).
        Every namespace referencing one goes; the rollback target's state
        stays for ``routing.rollback``.  Selection namespaces are scoped by
        application name, so instances sharing one state store never prune
        each other's state.
        """
        if not retired:
            return
        for namespace in {*self.state_store.namespaces(), *self._selection_managers}:
            keys = parse_namespace_keys(namespace, self.routing.scope)
            if not keys or retired.isdisjoint(keys):
                continue
            manager = self._selection_managers.pop(namespace, None)
            if manager is not None:
                manager.prune(())
            else:
                self.state_store.clear(namespace)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Start every deployed model's replicas and dispatchers."""
        if self._started:
            return
        if not self._models and not self.config.allow_empty_start:
            raise ClipperError("cannot start Clipper with no deployed models")
        for record in self._models.values():
            await record.start()
        self._started = True

    async def stop(self) -> None:
        """Stop dispatchers and container replicas."""
        if not self._started:
            return
        for record in self._models.values():
            await record.stop()
        self._started = False

    # -- prediction path ------------------------------------------------------

    async def predict(self, query: Query) -> Prediction:
        """Render a prediction for one query.

        The request flows routing → selection → cache → batching queues →
        containers → combine, with the straggler-mitigation deadline derived
        from the query's (or application's) latency SLO; a query's own SLO
        must be positive (``ValidationError``).  The routing plan
        pins the query's arm per split (keyed by user id, falling back to
        the input hash) and carries the per-arm metric handles used to
        attribute the outcome while a canary is in flight.
        """
        if not self._started:
            raise ClipperError("Clipper is not started")
        start = clock.now()
        slo_ms = query.latency_slo_ms
        if slo_ms is None:
            slo_ms = self.config.latency_slo_ms  # validated positive
        elif not slo_ms > 0:  # NaN too
            raise ValidationError(f"latency_slo_ms must be positive, got {slo_ms!r}")

        # Tracing: ``begin`` returns a context only for head-sampled (or
        # caller-forced) queries, so the cache-hit fast path pays exactly one
        # call returning None plus per-site ``is not None`` branches.  An
        # unsampled miss carries no context: ``_finish`` builds a shadow from
        # its queue entries only if it turned out interesting (SLO miss,
        # default, error, straggler, retry).  Engine-side per-stage spans are
        # recorded for *sampled* traces only.
        sampled = self._trace_begin(query.trace_id, start)
        if sampled is not None:
            # The frontend may have stamped edge-side spans (input
            # validation) before the engine clock started.
            pre = query.pre_spans
            if pre:
                sampled.spans.extend(pre)
                sampled.start = pre[0][1]

        # One digest per query (memoised by the cache for a recurring input)
        # serves the routing key, every per-model cache fetch, and the queue
        # entries the dispatchers fill the cache under.
        input_hash = query.input_hash(self.cache.digest)
        plan = self.routing.plan_for(query.user_id or input_hash)
        selection = self._selection_manager_for(plan)
        selected, selection_state = selection.select_with_state(
            query.input, context=query.user_id
        )
        if sampled is not None:
            sampled.add("selection.select", start, clock.now())
        predictions, misses = self.cache.fetch_by_hash(selected, input_hash)
        waited = shed = None
        if misses or sampled is not None:
            predictions, waited, shed = await self._layer.evaluate(
                misses, predictions, query, input_hash, self.overload,
                start + slo_ms / 1000.0, sampled,
            )

        # The query's one closing clock read comes after combine: a policy's
        # combine is part of the latency the application sees.
        default_output = self.config.default_output
        error = None
        if predictions:
            if sampled is not None:
                t_combine = clock.now()
            output, confidence = selection.combine(
                query.input, predictions, context=query.user_id,
                state=selection_state,
            )
            now = clock.now()
            if sampled is not None:
                sampled.add("selection.combine", t_combine, now)
            default_used = (
                self.config.confidence_threshold > 0.0
                and confidence < self.config.confidence_threshold
                and default_output is not None
            )
            if default_used:
                output = default_output
        else:
            now = clock.now()
            if isinstance(shed, OverloadError) or default_output is None:
                # Refused by the shed policy, or nothing to answer with: the
                # containers failed, or some model missed the deadline.
                error = (
                    shed
                    or failure_of(waited)
                    or PredictionTimeoutError(query.query_id, slo_ms)
                )
                output, confidence, default_used = None, 0.0, False
            else:
                # No model answered in time, every breaker was open, or the
                # ``degrade`` shed policy spoke: the default output.
                output, confidence, default_used = default_output, 0.0, True
        latency_ms = (now - start) * 1000.0
        if plan.tracked_arms and not shed:
            # Canary in flight: attribute this query's outcome to the
            # split arm(s) that served it, through handles resolved at
            # table-swap time (zero registry lookups here).  A shed query
            # says nothing about either arm.
            for arm_key, arm in plan.tracked_arms:
                if arm_key in selected:
                    arm.observe(latency_ms, ok=arm_key in predictions)
        return self._finish(
            query, output, confidence, error, start, latency_ms, now > start + slo_ms / 1000.0,
            selected, predictions, default_used, not misses, sampled, waited,
        )

    def _finish(
        self,
        query: Query,
        output: Any,
        confidence: float,
        error: Optional[Exception],
        start: float,
        latency_ms: float,
        late: bool,
        selected: List[str],
        predictions: Dict[str, Any],
        default_used: bool,
        from_cache: bool,
        sampled: Optional[Any],
        waited: Optional[Dict[str, Any]],
    ) -> Prediction:
        """Every way out of :meth:`predict` that is not a cancellation.

        Closes the query's trace exactly once — a sampled one, or a shadow built and committed
        only for a miss that turned out interesting — then raises ``error`` or counts the answered
        query and builds the response.  ``late`` compares the clock with the deadline: the
        ``latency_ms`` of an answer given at the deadline can round above the SLO.
        """
        trace_id = None
        if sampled is not None or waited:
            trace_id = self._layer.close_trace(
                sampled, waited, predictions, start, late,
                default_used, error is not None, query.query_id,
            )
        if error is not None:
            raise error
        self._answered.record(latency_ms)
        if default_used:
            self._default_counter.increment()
        if late:
            self._late_counter.increment()
        if len(predictions) == len(selected):
            models_used, missing = tuple(selected), ()
        else:
            models_used = tuple(key for key in selected if key in predictions)
            missing = tuple(key for key in selected if key not in predictions)
        # Positional, in field order.
        return Prediction(
            query.query_id, query.app_name, output, confidence, latency_ms,
            default_used, models_used, missing, from_cache, trace_id,
        )

    # -- feedback path --------------------------------------------------------

    async def feedback(self, feedback: Feedback) -> None:
        """Incorporate application feedback into the selection policy.

        The selection layer needs each model's prediction for the feedback
        input.  Cached predictions are joined directly; for cache misses the
        models are (re-)evaluated through the normal batching path, which is
        exactly the work the prediction cache saves (§4.2).  The feedback
        routes through the same plan as the queries it describes (same
        routing key → same split arm), so canary arms learn only from their
        own traffic.
        """
        if not self._started:
            raise ClipperError("Clipper is not started")
        input_hash = feedback.input_hash(self.cache.digest)
        # Snapshot the routing plan: live management ops may swap the table
        # while this coroutine awaits, and staged/retired versions should
        # not be evaluated for feedback.
        plan = self.routing.plan_for(feedback.user_id or input_hash)
        selection = self._selection_manager_for(plan)
        predictions, misses = self.cache.fetch_by_hash(plan.serving_keys, input_hash)
        if misses:
            predictions, _, _ = await self._layer.evaluate(
                misses, predictions, feedback, input_hash, UNGUARDED
            )
        selection.observe(feedback.input, feedback.label, predictions, context=feedback.user_id)
        self._feedback_counter.increment()
