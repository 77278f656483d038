"""Remote replica placement: replicas that run on worker daemons.

:class:`RemoteReplica` is a :class:`~repro.containers.replica.Replica` whose
RPC client comes from a *launch*: it asks a live worker daemon (resolved from
the shared :class:`~repro.cluster.registry.WorkerRegistry` by
:class:`WorkerPlacer`) to build the container from a *named* factory, then
speaks the ordinary container RPC protocol to it over tcp — or, same-host,
over shared-memory rings negotiated automatically.  Everything else a
replica does is the shared code in :mod:`repro.containers.replica`, and
every membership rule of a version is
:class:`~repro.core.deployed.DeployedModel`'s, so the batching dispatchers,
the health monitor and every admin verb (deploy / scale / rollout / canary)
drive cluster placements through the same classes as local ones.
:meth:`WorkerPlacer.replica_builder` is the placement callable the ingress
gives its :class:`~repro.core.clipper.Clipper`.

*Placement* failure — no live worker in the registry — raises
:class:`~repro.core.exceptions.RpcError`, which the health monitor's
``_recover`` treats as transient and retries with backoff until a worker
comes back.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.cluster.registry import WorkerAnnouncement, WorkerRegistry
from repro.containers.replica import (
    RPC_TIMEOUT_S,
    Replica,
    ReplicaBuilder,
    place_locally,
)
from repro.core.exceptions import ContainerError, RpcError
from repro.core.types import ModelId
from repro.rpc.client import RpcClient
from repro.rpc.shm import HAS_SHARED_MEMORY, attach_shm_endpoint
from repro.rpc.transport import TcpTransport

#: How long a remote replica waits for the worker's launch reply.
LAUNCH_TIMEOUT_S = 10.0


class WorkerPlacer:
    """Round-robin placement of replicas onto live registered workers."""

    def __init__(self, registry: WorkerRegistry) -> None:
        self.registry = registry
        self._round_robin = 0

    def place(self, exclude: Sequence[str] = ()) -> WorkerAnnouncement:
        """Pick a live worker, preferring ones not in ``exclude``.

        ``exclude`` lists workers believed dead or sick (e.g. the worker a
        replica just failed on); they are only used when no other worker is
        live.  Raises :class:`RpcError` — the *retryable* error class — when
        the registry has no live worker at all, so health-driven recovery
        keeps retrying until one appears instead of giving up.
        """
        live = self.registry.live_workers()
        if not live:
            raise RpcError("no live workers in the cluster registry")
        preferred = [w for w in live if w.worker_id not in exclude] or live
        worker = preferred[self._round_robin % len(preferred)]
        self._round_robin += 1
        return worker

    def replica_builder(self, deployment, model_id: ModelId) -> ReplicaBuilder:
        """Placement callable: spread a deployment's replicas over the workers.

        Deployments that name their container factory place remotely; ones
        that only carry a bare callable (no name a worker could resolve) are
        placed in this process.  A replacement replica avoids the worker of
        the replica it replaces — when a worker dies, recovery naturally
        migrates its replicas onto the survivors.
        """
        if not deployment.factory_name:
            return place_locally(deployment, model_id)

        def build(replica_id: int, avoid: Sequence[Replica]) -> RemoteReplica:
            worker = self.place(exclude=[sick.worker.worker_id for sick in avoid])
            return RemoteReplica(
                model_id,
                replica_id,
                worker,
                deployment.factory_name,
                transport=deployment.transport,
            )

        return build


def _resolve_lane(worker: WorkerAnnouncement, preference: str) -> tuple:
    """(lane, forced) for a replica placed on ``worker``.

    ``preference`` is the deployment's ``transport`` field.  ``"tcp"`` and
    ``"shm"`` force that lane; anything else (the in-process default) means
    *auto*: shared-memory rings when the worker advertises shm support and
    shares this host, tcp otherwise — the cross-host fallback the paper's
    same-machine fast path needs.
    """
    shm_ok = worker.shm_supported and worker.same_host_as() and HAS_SHARED_MEMORY
    if preference == "tcp":
        return "tcp", True
    if preference == "shm":
        if not shm_ok:
            raise RpcError(
                f"transport 'shm' was forced but worker {worker.worker_id} "
                "cannot serve shared memory from this host"
            )
        return "shm", True
    return ("shm", False) if shm_ok else ("tcp", False)


class RemoteReplica(Replica):
    """One replica of a model, hosted by a worker daemon in another process.

    ``start`` connects to the worker's control port, asks it to launch the
    container from ``factory_name``, and keeps the resulting connection as
    the data lane; ``stop`` simply closes it — the worker tears the
    container down when its end of the lane goes quiet.
    """

    def __init__(
        self,
        model_id: ModelId,
        replica_id: int,
        worker: WorkerAnnouncement,
        factory_name: str,
        transport: str = "inprocess",
    ) -> None:
        if not factory_name:
            raise ContainerError(
                str(model_id),
                "remote placement needs a named container factory "
                "(deployment.factory_name) the worker can resolve",
            )
        super().__init__(model_id, replica_id)
        self.worker = worker
        self.factory_name = factory_name
        #: The negotiated RPC lane, "shm" or "tcp".
        self.lane, self._forced = _resolve_lane(worker, transport)

    async def _launch(self, lane: str) -> RpcClient:
        """Ask the worker to launch the container; return the data client."""
        control = await TcpTransport.connect(self.worker.tcp_host, self.worker.tcp_port)
        try:
            async with asyncio.timeout(LAUNCH_TIMEOUT_S):
                await control.send(
                    {"op": "launch", "factory": self.factory_name, "transport": lane}
                )
                reply = await control.recv()
        except (RpcError, TimeoutError) as exc:
            await control.close()
            raise RpcError(
                f"worker {self.worker.worker_id} did not answer launch: {exc}"
            ) from exc
        if not reply.get("ok"):
            await control.close()
            raise RpcError(
                f"worker {self.worker.worker_id} refused to launch "
                f"{self.model_id}: {reply.get('error', 'unknown error')}"
            )
        if lane == "shm":
            try:
                data = await attach_shm_endpoint(reply["shm"])
            finally:
                await control.close()
        else:
            # The control connection *is* the data connection on the tcp lane.
            data = control
        return RpcClient(data, timeout_s=RPC_TIMEOUT_S)

    async def _open(self) -> RpcClient:
        try:
            return await self._launch(self.lane)
        except RpcError:
            if self.lane != "shm" or self._forced:
                raise
            # Auto-negotiated shm failed (worker restarted without shm, bell
            # race, ...) — fall back to the tcp lane rather than fail the
            # replica, matching the cross-host behaviour.
            self.lane = "tcp"
            return await self._launch("tcp")

    # The same function, bound under this class's own name so that per-class
    # instrumentation (the benchmark's tracer wraps it) times remote batches
    # without touching local replicas.
    predict_batch = Replica.predict_batch

    @property
    def name(self) -> str:
        return f"{self.model_id}[{self.replica_id}]@{self.worker.worker_id}"
