"""Operator-facing management frontend.

The paper's architecture has two frontends: the query frontend applications
call for predictions, and a management frontend operators call to mutate the
serving configuration — deploy models and versions, scale replicas, roll
out and roll back — with the state persisted in Redis.  The
:class:`ManagementFrontend` is that second interface for the reproduction,
mirroring :class:`~repro.core.frontend.QueryFrontend`: it hosts the same
applications (each a :class:`~repro.core.clipper.Clipper`), validates and
routes management operations by application name, records every operation in
the :class:`~repro.management.registry.ModelRegistry`, and runs one
:class:`~repro.management.health.HealthMonitor` per application.

It is the single public surface for examples and tests::

    mgmt = ManagementFrontend()
    mgmt.register_application(clipper)
    await mgmt.start()                       # serving + health + canary control up
    await mgmt.deploy_model("app", ModelDeployment("svm", factory, version=2))
    await mgmt.start_canary("app", "svm", 2, weight=0.1)   # 10% of keys on v2
    await mgmt.adjust_canary("app", "svm", weight=0.5)     # ramp to 50%
    await mgmt.promote("app", "svm")         # ... or let the controller decide
    await mgmt.set_num_replicas("app", "svm", 3)
    await mgmt.rollback("app", "svm")        # v1 takes traffic back
    await mgmt.stop()

Each application also gets a
:class:`~repro.routing.controller.CanaryController` (unless disabled) whose
promote/abort actions route back through this frontend, so metrics-driven
decisions update the durable registry exactly like operator-issued ones.

Every verb is the same steps: look the application up, then — in
:meth:`ManagementFrontend._apply` — **precheck** against the registry (the
versions the verb will route to or touch are registered and not undeployed; a
deploy's version number is unused), make the one :class:`Clipper` call,
**project** the name's live routing and the touched version into the registry
and log.  A verb states only what differs: the keys to precheck, the call,
the touched fields, the log line.  Everything the registry can refuse is
checked before the live change, so no verb has a step to undo.
"""

from __future__ import annotations

import inspect
import logging
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.core.clipper import Clipper
from repro.core.config import ModelDeployment
from repro.core.exceptions import ManagementError
from repro.core.frontend import (
    ApplicationHost,
    start_applications,
    stop_applications,
)
from repro.core.types import ModelId, ReplicaHealth
from repro.management.health import HealthMonitor
from repro.management.recovery import RecoveryReport
from repro.management.registry import ModelRegistry
from repro.observability.logging import get_logger
from repro.routing.controller import CanaryController
from repro.routing.split import TrafficSplit
from repro.state.kvstore import KeyValueStore

logger = get_logger("management.frontend")


class ManagementFrontend(ApplicationHost):
    """Routes lifecycle operations to applications and records them durably."""

    def __init__(
        self,
        store: Optional[KeyValueStore] = None,
        registry: Optional[ModelRegistry] = None,
        monitor_health: bool = True,
        health_kwargs: Optional[Dict[str, Any]] = None,
        manage_canaries: bool = True,
        canary_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__()
        self.registry = registry or ModelRegistry(store=store)
        self._monitors: Dict[str, HealthMonitor] = {}
        self._controllers: Dict[str, CanaryController] = {}
        self._monitor_health = monitor_health
        self._health_kwargs = dict(health_kwargs or {})
        self._manage_canaries = manage_canaries
        self._canary_kwargs = dict(canary_kwargs or {})
        self._recoveries: Dict[str, RecoveryReport] = {}
        self._started = False

    # -- registration ----------------------------------------------------------

    def register_application(self, clipper: Clipper) -> str:
        """Register an application for management; the name comes from its config.

        Any models already deployed on the instance are back-filled into the
        registry so the durable record matches the running configuration.
        When registering onto an already-started frontend, call
        :meth:`start` again afterwards — it is idempotent for running
        applications and brings up the new application and its health
        monitor.
        """
        app_name = self._host_application(clipper)
        try:
            self.registry.register_application(
                app_name, metadata=self._schemas[app_name].to_dict()
            )
        except ManagementError:
            # The durable record refused the application (e.g. a previous
            # frontend on the same store already registered the name): undo
            # the in-memory hosting so the two never disagree.
            self._unhost_application(app_name)
            raise
        self._attach(app_name, clipper)
        for record in clipper.model_records():
            self._project(
                app_name,
                clipper,
                record.model_id.name,
                record.model_id.version,
                spec=record.deployment.to_spec(),
                num_replicas=len(record.dispatchers),
            )
        return app_name

    def _attach(self, app_name: str, clipper: Clipper) -> None:
        """Attach the health monitor and canary controller of one application."""
        if self._monitor_health:
            self._monitors[app_name] = HealthMonitor(clipper, **self._health_kwargs)
        if self._manage_canaries:
            # The controller's actions route back through this frontend so
            # auto-promote/auto-abort update the registry like operator ops.
            self._controllers[app_name] = CanaryController(
                clipper,
                health_monitor=self._monitors.get(app_name),
                promote=partial(self.promote, app_name),
                abort=partial(self.abort_canary, app_name),
                **self._canary_kwargs,
            )

    def _project(
        self,
        app_name: str,
        clipper: Clipper,
        model_name: str,
        version: Optional[int] = None,
        **touched: Any,
    ) -> None:
        """Record the live routing of ``model_name`` in the registry.

        ``version`` and ``touched`` say what the verb changed about one
        version's own record (``spec=``, ``num_replicas=``, ``undeployed=``,
        see :meth:`ModelRegistry.project`); without them only routing is
        written.
        """
        split = clipper.routing.split_for(model_name)
        routing = None
        if split is not None:
            routing = split.to_record()
            routing["previous"] = clipper.routing.previous_key(model_name)
        self.registry.project(app_name, model_name, routing, version, **touched)

    def _precheck(
        self, app_name: str, model_name: str, *model_keys: Optional[str]
    ) -> None:
        """Refuse, before any live change, what the registry would refuse after.

        The name must be registered, and each key must name a registered
        version that has not been undeployed: one deployed directly on the
        :class:`Clipper`, behind the frontend's back, has no record to
        restore from and cannot be routed to, scaled or torn down through
        the frontend.  ``None`` keys (no canary in flight, no rollback
        target) are left for the live call to reject.
        """
        versions = self.registry.model(app_name, model_name)["versions"]
        for version in (key.rpartition(":")[2] for key in model_keys if key):
            record = versions.get(version)
            if record is None:
                raise ManagementError(
                    f"version {version} of model '{model_name}' is not in the "
                    "registry; deploy it through the management frontend"
                )
            if record["undeployed"]:
                raise ManagementError(
                    f"version {version} of model '{model_name}' has been undeployed"
                )

    async def restore_application(
        self,
        clipper: Clipper,
        factories: Optional[Mapping[str, Callable[[], object]]] = None,
    ) -> RecoveryReport:
        """Rebuild one application's serving state from its registry records.

        The cold-start half of durability: the caller reopens the durable
        store (whose registry records survived the crash), constructs a
        fresh :class:`Clipper` with the application's configuration, and
        this method rebuilds everything the dead process was serving —
        every non-undeployed model version (via the named container
        ``factories``, replica counts included), the routing table's
        stable arms and rollback pointers, and any canary split that was
        in flight (which the canary controller then resumes ramping).

        The application must already be in the registry; it is hosted
        in-memory *without* re-registering.  Versions whose factory is
        missing are reported in the returned :class:`RecoveryReport`
        (also surfaced via :meth:`recovery_status` and the health API)
        rather than failing the whole restore.
        """
        app_name = clipper.config.app_name
        self.registry.application(app_name)  # must exist durably
        if clipper.model_records():
            raise ManagementError(
                f"restore_application needs a fresh instance; '{app_name}' "
                "already has models deployed"
            )
        report = RecoveryReport(app_name=app_name)
        store_recovery = getattr(self.registry.store, "recovery", None)
        if store_recovery is not None:
            report.store = store_recovery.to_dict()
        self._host_application(clipper)
        try:
            factories = dict(factories or {})
            for model_name, model in sorted(self.registry.models(app_name).items()):
                versions = sorted(
                    model["versions"].values(), key=lambda rec: int(rec["version"])
                )
                for rec in versions:
                    if rec["undeployed"]:
                        continue
                    try:
                        deployment = ModelDeployment.from_spec(
                            {**rec["spec"], "num_replicas": rec["num_replicas"]},
                            factories,
                        )
                    except ManagementError as exc:
                        report.skipped.append(
                            {
                                "model": model_name,
                                "version": int(rec["version"]),
                                "reason": str(exc),
                            }
                        )
                        continue
                    # Every version comes up staged; the recorded routing is
                    # swapped in wholesale below.
                    await clipper.deploy_model_async(deployment, activate=False)
                    report.versions_restored += 1
                if model["routing"] is not None:
                    self._restore_routes(clipper, model_name, model["routing"], report)
        except BaseException:
            self._unhost_application(app_name)
            raise
        self._attach(app_name, clipper)
        self._recoveries[app_name] = report
        return report

    def _restore_routes(
        self,
        clipper: Clipper,
        model_name: str,
        routing: Dict[str, Any],
        report: RecoveryReport,
    ) -> None:
        """Reinstall one model's stored routing record (split + rollback key)."""
        split = TrafficSplit.from_record(routing)
        deployed = {str(model_id) for model_id in clipper.model_versions(model_name)}
        missing = [key for key in split.keys() if key not in deployed]
        if missing:
            report.skipped.append(
                {
                    "model": model_name,
                    "reason": f"recorded routing references unrestored versions {missing}",
                }
            )
            return
        previous_key = routing["previous"]
        if previous_key not in deployed:
            previous_key = None  # rollback target did not come back; drop it
        clipper.restore_routing(model_name, split, previous_key)
        report.routes_restored += 1
        if split.canary is not None:
            report.canaries_resumed += 1

    def recovery_status(self) -> Dict[str, Dict[str, Any]]:
        """Per-application recovery reports (empty for cold-started frontends)."""
        return {name: report.to_dict() for name, report in self._recoveries.items()}

    # ``applications()`` / ``application()`` / ``schema()`` / ``_lookup`` are
    # inherited from :class:`ApplicationHost` — the same registry and error
    # path the query frontend uses.

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start every managed application and its health monitor.

        Shares the query frontend's all-or-nothing start: a failure stops
        the applications already brought up before propagating.  Idempotent
        for already-running applications and monitors, so it can be called
        again after :meth:`register_application` on a live frontend.
        """
        await start_applications(self._applications)
        try:
            for monitor in self._monitors.values():
                await monitor.start()
            for controller in self._controllers.values():
                await controller.start()
        except BaseException:
            # Applications came up but a monitor did not: unwind both so a
            # failed start leaves nothing running.
            for controller in self._controllers.values():
                await controller.stop()
            for monitor in self._monitors.values():
                await monitor.stop()
            try:
                await stop_applications(self._applications)
            except Exception:
                # surface the original monitor-start failure
                logger.warning("unwind of a failed start also failed", exc_info=True)
            raise
        self._started = True

    async def stop(self) -> None:
        """Stop canary controllers, health monitors and applications."""
        for controller in self._controllers.values():
            await controller.stop()
        for monitor in self._monitors.values():
            await monitor.stop()
        self._started = False
        await stop_applications(self._applications)

    # -- model lifecycle operations -------------------------------------------

    async def _apply(
        self,
        clipper: Clipper,
        model_name: str,
        keys: Optional[Sequence[Optional[str]]],
        call: Callable[[], Any],
        touched: Callable[[Any], Dict[str, Any]] = lambda result: {},
        log: Optional[str] = None,
        level: int = logging.INFO,
        **extra: Any,
    ) -> Any:
        """The step every verb is: precheck, the one call, project, log.

        ``keys`` go to :meth:`_precheck` (``None``: the verb checked for
        itself); ``call()`` is the one live change, awaited when it is a
        coroutine, and its result the verb's; ``touched(result)`` is the
        ``version`` and its fields :meth:`_project` records beside the
        routing; ``log`` names the model id the call answered with, else the
        model.
        """
        app_name = clipper.config.app_name
        if keys is not None:
            self._precheck(app_name, model_name, *keys)
        result = call()
        if inspect.isawaitable(result):
            result = await result
        self._project(app_name, clipper, model_name, **touched(result))
        if log is not None:
            subject, fields = model_name, {"app": app_name, "model": model_name, **extra}
            if isinstance(result, ModelId):
                subject, fields["version"] = result, result.version
            logger.log(level, log, subject, extra=fields)
        return result

    async def deploy_model(
        self,
        app_name: str,
        deployment: ModelDeployment,
        activate: Optional[bool] = None,
    ) -> ModelId:
        """Deploy one model version onto a (possibly running) application.

        On a started application the version's replicas are up when this
        returns.  The first version of a name serves immediately; later
        versions stage for :meth:`rollout` unless ``activate=True``.
        """
        clipper = self._lookup(app_name)
        name, version = deployment.name, deployment.version
        # Version numbers are immutable, undeployed ones included.
        known = self.registry.models(app_name).get(name, {"versions": {}})
        if str(version) in known["versions"]:
            raise ManagementError(
                f"version {version} of model '{name}' is already registered; "
                "versions are immutable"
            )
        return await self._apply(
            clipper,
            name,
            None,
            partial(clipper.deploy_model_async, deployment, activate=activate),
            touched=lambda _: {"version": version, "spec": deployment.to_spec()},
            log="deployed %s",
            num_replicas=deployment.num_replicas,
        )

    async def undeploy_model(self, app_name: str, model: str) -> ModelId:
        """Drain and tear down one model version; its registry record is kept."""
        clipper = self._lookup(app_name)
        model_id = clipper.model_record(model).model_id
        return await self._apply(
            clipper,
            model_id.name,
            [str(model_id)],
            partial(clipper.undeploy_model, str(model_id)),
            touched=lambda _: {"version": model_id.version, "undeployed": True},
            log="undeployed %s",
        )

    async def set_num_replicas(self, app_name: str, model: str, num_replicas: int) -> int:
        """Scale one model version's live replicas; returns the new count."""
        clipper = self._lookup(app_name)
        model_id = clipper.model_record(model).model_id
        return await self._apply(
            clipper,
            model_id.name,
            [str(model_id)],
            partial(clipper.set_num_replicas, str(model_id), num_replicas),
            touched=lambda count: {"version": model_id.version, "num_replicas": count},
        )

    async def rollout(self, app_name: str, model_name: str, version: int) -> ModelId:
        """Atomically switch ``model_name`` to serve ``version``."""
        clipper = self._lookup(app_name)
        keys = [f"{model_name}:{version}"]
        call = partial(clipper.rollout, model_name, version)
        return await self._apply(clipper, model_name, keys, call, log="rolled out %s")

    async def rollback(self, app_name: str, model_name: str) -> ModelId:
        """Atomically switch ``model_name`` back to its previous version."""
        clipper = self._lookup(app_name)
        keys = [clipper.routing.previous_key(model_name)]
        call = partial(clipper.rollback, model_name)
        return await self._apply(
            clipper, model_name, keys, call, log="rolled back to %s", level=logging.WARNING
        )

    # -- canary rollouts -------------------------------------------------------

    async def start_canary(
        self, app_name: str, model_name: str, version: int, weight: float
    ) -> TrafficSplit:
        """Begin a weighted canary rollout and record the split durably.

        ``weight`` of the model's traffic (by deterministic routing-key
        hash) shifts onto ``version``; the application's canary controller
        (when enabled) will auto-promote or auto-abort it from the per-arm
        metrics and the health monitor's quarantine signal.
        """
        clipper = self._lookup(app_name)
        keys = [f"{model_name}:{version}"]
        call = partial(clipper.start_canary, model_name, version, weight)
        return await self._apply(
            clipper,
            model_name,
            keys,
            call,
            log="canary started for %s",
            version=version,
            weight=weight,
        )

    async def adjust_canary(
        self, app_name: str, model_name: str, weight: float
    ) -> TrafficSplit:
        """Change an in-flight canary's traffic weight and re-record it."""
        clipper = self._lookup(app_name)
        keys = [clipper.routing.canary_key(model_name)]
        call = partial(clipper.adjust_canary, model_name, weight)
        return await self._apply(clipper, model_name, keys, call)

    async def promote(self, app_name: str, model_name: str) -> ModelId:
        """Make the in-flight canary the serving version; record the new routing."""
        clipper = self._lookup(app_name)
        keys = [clipper.routing.canary_key(model_name)]
        call = partial(clipper.promote, model_name)
        return await self._apply(clipper, model_name, keys, call, log="canary promoted to %s")

    async def abort_canary(self, app_name: str, model_name: str) -> ModelId:
        """Abort the in-flight canary; traffic returns to the stable version."""
        clipper = self._lookup(app_name)
        call = partial(clipper.abort_canary, model_name)
        return await self._apply(
            clipper, model_name, [], call, log="canary aborted, %s serves", level=logging.WARNING
        )

    def traffic_split(
        self, app_name: str, model_name: str
    ) -> Optional[Dict[str, Any]]:
        """The durably recorded in-flight split of one model (None when stable)."""
        self._lookup(app_name)
        return self.registry.traffic_split(app_name, model_name)

    def canary_controller(self, app_name: str) -> Optional[CanaryController]:
        """The application's canary controller (None when management is off)."""
        self._lookup(app_name)
        return self._controllers.get(app_name)

    # -- introspection ---------------------------------------------------------

    def models(self, app_name: str) -> Dict[str, Dict[str, Any]]:
        """Registry records of every model of one application."""
        self._lookup(app_name)
        return self.registry.models(app_name)

    def model_info(self, app_name: str, model_name: str) -> Dict[str, Any]:
        """Registry record of one model (versions, active/previous).

        Augmented with the hosting application's declared serving contract
        (``app_schema``: input type/shape, default output, SLO) so the admin
        API reports what the model is expected to consume and produce.
        """
        self._lookup(app_name)
        info = self.registry.model(app_name, model_name)
        info["app_schema"] = self._schemas[app_name].to_dict()
        return info

    def health_monitor(self, app_name: str) -> Optional[HealthMonitor]:
        """The application's health monitor (None when monitoring is off)."""
        self._lookup(app_name)
        return self._monitors.get(app_name)

    def replica_health(self, app_name: str) -> Dict[str, ReplicaHealth]:
        """Per-replica health records of one application."""
        monitor = self.health_monitor(app_name)
        return monitor.status() if monitor is not None else {}

    def describe(self, app_name: str) -> Dict[str, Any]:
        """One-call operational snapshot of an application."""
        clipper = self._lookup(app_name)
        monitor = self._monitors.get(app_name)
        return {
            "app_name": app_name,
            "schema": self._schemas[app_name].to_dict(),
            "started": clipper.is_started,
            "serving": [str(m) for m in clipper.serving_models()],
            "deployed": [str(m) for m in clipper.deployed_models()],
            "routing": clipper.routing.describe(),
            "replicas": {
                str(record.model_id): len(record.dispatchers)
                for record in clipper.model_records()
            },
            "health": {
                name: status.state
                for name, status in self.replica_health(app_name).items()
            },
            "unhealthy_models": monitor.unhealthy_model_keys() if monitor else [],
            "overload": clipper.overload.state(),
            "recovery": (
                self._recoveries[app_name].to_dict()
                if app_name in self._recoveries
                else None
            ),
        }
