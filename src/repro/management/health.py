"""Health-driven replica recovery.

The paper's management plane restarts model containers that stop responding
so the serving tier self-heals without operator action.  The
:class:`HealthMonitor` reproduces that loop for one running
:class:`~repro.core.clipper.Clipper`:

* **probe** — every replica of every deployed version is probed over RPC on
  an interval (the heartbeat reply carries the container's own ``healthy()``
  verdict).  A probe fails when the replica does not answer within the probe
  timeout, answers unhealthy, or answers slower than an optional latency
  ceiling.  Dispatcher batch failures count as a passive signal alongside
  the active probes, so a replica that dies mid-traffic is caught without
  waiting for the next probe tick.
* **quarantine** — after ``failure_threshold`` consecutive failures the
  replica's dispatcher is detached from the live batching queue (its
  in-flight batch drains or is re-enqueued; queued queries flow to healthy
  siblings) and the replica stops receiving traffic.
* **recover** — a per-replica background task rebuilds the container from
  the deployment's factory with exponential backoff, health-checks the
  replacement, and only then re-attaches the dispatcher to the queue.

The monitor keeps no per-replica state: each replica's :class:`ReplicaHealth`
and recovery task ride on its dispatcher in the version's
:class:`~repro.core.deployed.DeployedModel`.  Every read below walks
``clipper.model_records()``, and what leaves takes its history along.

Progress is visible through the Clipper's :class:`MetricsRegistry`
(``health.probes``, ``health.probe_failures``, ``health.quarantines``,
``health.restarts``, ``health.recoveries``) and through :meth:`status`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.batching.dispatcher import ReplicaDispatcher
from repro.containers.replica import Replica
from repro.core.clipper import Clipper
from repro.core.deployed import DeployedModel, end_recovery
from repro.core.exceptions import ClipperError
from repro.core.types import (
    REPLICA_HEALTHY,
    REPLICA_QUARANTINED,
    REPLICA_RECOVERING,
    ReplicaHealth,
)
from repro.observability.logging import get_logger

logger = get_logger("management.health")

#: Growth of the restart back-off after each failed attempt.
_BACKOFF_FACTOR = 2.0


class HealthMonitor:
    """Probes a Clipper's replicas, quarantining and restarting sick ones.

    Parameters
    ----------
    clipper:
        The serving instance to watch.
    probe_interval_s:
        Delay between probe sweeps over every replica.
    failure_threshold:
        Consecutive probe failures (or dispatcher batch failures) that
        trigger quarantine.
    probe_timeout_s:
        Deadline for one heartbeat probe, including waiting behind an
        in-flight batch on the replica's RPC connection.
    latency_ceiling_ms:
        Optional ceiling on the probe round-trip: slower replies count as
        failures even when the replica eventually answers (a replica this
        slow is straggling every batch it serves).
    restart_backoff_s / max_backoff_s:
        Exponential-backoff schedule (doubling) for restart attempts while a
        replica stays sick.
    """

    def __init__(
        self,
        clipper: Clipper,
        probe_interval_s: float = 0.1,
        failure_threshold: int = 3,
        probe_timeout_s: float = 1.0,
        latency_ceiling_ms: Optional[float] = None,
        restart_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> None:
        self.clipper = clipper
        self.probe_interval_s = probe_interval_s
        self.failure_threshold = failure_threshold
        self.probe_timeout_s = probe_timeout_s
        self.latency_ceiling_ms = latency_ceiling_ms
        self.restart_backoff_s = restart_backoff_s
        self.max_backoff_s = max_backoff_s

        metrics = clipper.metrics
        self._probe_counter = metrics.counter("health.probes")
        self._failure_counter = metrics.counter("health.probe_failures")
        self._quarantine_counter = metrics.counter("health.quarantines")
        self._restart_counter = metrics.counter("health.restarts")
        self._recovery_counter = metrics.counter("health.recoveries")

        self._task: Optional[asyncio.Task] = None
        self._running = False

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Start the probe loop as a background task."""
        if self._task is None or self._task.done():
            self._running = True
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop probing and cancel any in-flight recovery tasks."""
        self._running = False
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            await asyncio.wait([task])
        for _, dispatcher in self._dispatchers():
            await end_recovery(dispatcher)

    async def _run(self) -> None:
        while self._running:
            try:
                await self.probe_once()
            except asyncio.CancelledError:
                raise
            except Exception:
                # The monitor must outlive transient probe errors (e.g. a
                # replica torn down mid-sweep by a concurrent scale-down).
                logger.warning(
                    "health sweep failed",
                    exc_info=True,
                    extra={"app": self.clipper.config.app_name},
                )
            await asyncio.sleep(self.probe_interval_s)

    # -- probing ----------------------------------------------------------------

    async def probe_once(self) -> None:
        """Sweep every replica of every deployed version once.

        Probes run concurrently so one unresponsive replica burning its full
        ``probe_timeout_s`` does not delay failure detection for the others.
        """
        targets = []
        for record, dispatcher in self._dispatchers():
            if dispatcher.health.state != REPLICA_HEALTHY:
                continue  # a recovery task owns this replica
            if dispatcher.consecutive_failures >= self.failure_threshold:
                # Passive signal: the dispatcher saw the replica fail
                # batch after batch; no need to wait for probes to agree.
                await self._quarantine(record, dispatcher)
                continue
            targets.append((record, dispatcher))
        if not targets:
            return
        results = await asyncio.gather(
            *(self._probe_replica(dispatcher.replica) for _, dispatcher in targets)
        )
        for (record, dispatcher), (ok, rtt_ms) in zip(targets, results):
            status = dispatcher.health
            self._probe_counter.increment()
            status.probes += 1
            status.last_probe_latency_ms = rtt_ms
            if ok and (
                self.latency_ceiling_ms is None or rtt_ms <= self.latency_ceiling_ms
            ):
                status.consecutive_failures = 0
                continue
            status.consecutive_failures += 1
            status.failures += 1
            self._failure_counter.increment()
            if status.consecutive_failures >= self.failure_threshold:
                await self._quarantine(record, dispatcher)

    async def _probe_replica(self, replica: Replica) -> Tuple[bool, float]:
        start = time.perf_counter()
        ok = await replica.check_health(timeout_s=self.probe_timeout_s)
        return ok, (time.perf_counter() - start) * 1000.0

    def _dispatchers(self) -> List[Tuple[DeployedModel, ReplicaDispatcher]]:
        """Every live replica's dispatcher, with the version it belongs to."""
        return [
            (record, dispatcher)
            for record in self.clipper.model_records()
            for dispatcher in record.dispatchers
        ]

    # -- quarantine & recovery ---------------------------------------------------

    async def _quarantine(
        self, record: DeployedModel, dispatcher: ReplicaDispatcher
    ) -> None:
        status, replica = dispatcher.health, dispatcher.replica
        status.mark(REPLICA_QUARANTINED)
        status.quarantines += 1
        self._quarantine_counter.increment()
        logger.warning(
            "replica quarantined: %s",
            replica.name,
            extra={
                "model": str(record.model_id),
                "replica_id": replica.replica_id,
                "quarantines": status.quarantines,
                "consecutive_failures": status.consecutive_failures,
            },
        )
        # Detach from the live queue: the in-flight batch completes (or
        # re-enqueues its queries on failure) and queued queries flow to
        # the model's healthy replicas.
        await dispatcher.stop()
        # Scaled away or undeployed during that wait: nothing left to restart.
        if (record, dispatcher) in self._dispatchers():
            dispatcher.recovery = asyncio.get_running_loop().create_task(
                self._recover(record, dispatcher)
            )

    async def _recover(
        self, record: DeployedModel, dispatcher: ReplicaDispatcher
    ) -> None:
        """Restart a quarantined replica with backoff until it probes healthy.

        Whoever removes the dispatcher (scale-down, undeploy) cancels this
        task, so it never has to ask whether its replica is still there.
        """
        status = dispatcher.health
        backoff = self.restart_backoff_s
        while self._running:
            await asyncio.sleep(backoff)
            status.mark(REPLICA_RECOVERING)
            try:
                fresh = await record.replace_replica(dispatcher)
            except asyncio.CancelledError:
                raise
            except Exception:
                # The builder runs the deployment's container factory, which
                # is user code.  A transiently failing one must not kill the
                # recovery task — that would abandon the replica in
                # quarantine forever.  Treat it as a failed attempt.
                logger.warning(
                    "replica rebuild failed: %s",
                    dispatcher.replica.name,
                    exc_info=True,
                    extra={"model": str(record.model_id), "restarts": status.restarts},
                )
                status.mark(REPLICA_QUARANTINED)
                backoff = min(backoff * _BACKOFF_FACTOR, self.max_backoff_s)
                continue
            self._restart_counter.increment()
            status.restarts += 1
            try:
                await fresh.start()
                healthy = await fresh.check_health(timeout_s=self.probe_timeout_s)
            except (ClipperError, OSError, asyncio.TimeoutError):
                # What bringing a lane up can meet: a refused or unanswered
                # launch, a port or segment that is gone, a probe timing out.
                healthy = False
            if healthy:
                dispatcher.consecutive_failures = 0
                dispatcher.recovery = None
                if self.clipper.is_started:
                    dispatcher.start()
                status.mark(REPLICA_HEALTHY)
                status.consecutive_failures = 0
                self._recovery_counter.increment()
                logger.info(
                    "replica recovered: %s",
                    fresh.name,
                    extra={
                        "model": str(record.model_id),
                        "replica_id": fresh.replica_id,
                        "restarts": status.restarts,
                    },
                )
                return
            status.mark(REPLICA_QUARANTINED)
            backoff = min(backoff * _BACKOFF_FACTOR, self.max_backoff_s)

    # -- introspection ------------------------------------------------------------

    def _healths(self) -> List[ReplicaHealth]:
        return [dispatcher.health for _, dispatcher in self._dispatchers()]

    def status(self) -> Dict[str, ReplicaHealth]:
        """Health record per live replica name (a restarted replica keeps its own)."""
        return {status.replica_name: status for status in self._healths()}

    def replicas_in_state(self, state: str) -> List[ReplicaHealth]:
        return [s for s in self._healths() if s.state == state]

    def statuses_for(self, model_key: str) -> List[ReplicaHealth]:
        """Health records of every replica of one model version key."""
        return [s for s in self._healths() if s.model_key == model_key]

    def quarantines_for(self, model_key: str) -> int:
        """Total quarantines recorded against one model version's replicas.

        This is the quarantine signal the canary controller compares against
        its rollout-start baseline: any increase while a canary of this
        version is in flight aborts the rollout.
        """
        return sum(s.quarantines for s in self.statuses_for(model_key))

    def unhealthy_model_keys(self) -> List[str]:
        """Model version keys with at least one replica not currently healthy."""
        return sorted(
            {s.model_key for s in self._healths() if s.state != REPLICA_HEALTHY}
        )
