"""Replicas: the one seam between serving and containers.

Each deployed model can be replicated (paper §4.4.1); every replica gets its
own RPC connection and — in the batching layer — its own adaptive batching
queue, because "different replicas can have different performance
characteristics".  The layers above (batching dispatchers, health monitor,
admin verbs) see exactly one class: :class:`Replica`, one running copy of a
model behind the batch-predict RPC interface.  Everything a caller uses
(``start`` / ``stop`` / ``predict_batch`` / ``check_health`` / ``started`` /
``name``) is written here once; a subclass supplies only *how the RPC client
comes to exist*.  :class:`ContainerReplica` builds the container in this
process (in-process, shared-memory or loopback-tcp lane);
:class:`~repro.cluster.remote.RemoteReplica` asks a worker daemon to.

Where a deployment's replicas live is decided by a *placement* callable,
``placement(deployment, model_id) -> ReplicaBuilder``, given to
:class:`~repro.core.clipper.Clipper` at construction: :func:`place_locally`
is the default, :meth:`repro.cluster.remote.WorkerPlacer.replica_builder`
the cluster's.  Which replicas a version has — ids, membership, replacement
— is kept by its :class:`~repro.core.deployed.DeployedModel`, which calls
the builder.
"""

from __future__ import annotations

import asyncio
import tempfile
from typing import Any, Callable, List, Optional, Sequence

from repro.containers.base import ModelContainer
from repro.core.exceptions import ContainerError, RpcError
from repro.core.types import ModelId
from repro.rpc.client import DirectRpcClient, RpcClient
from repro.rpc.protocol import RpcResponse
from repro.rpc.server import ContainerRpcServer
from repro.rpc.shm import HAS_SHARED_MEMORY, ShmHostEndpoint, attach_shm_endpoint
from repro.rpc.serialization import wire_copy
from repro.rpc.transport import TcpListener, TcpTransport, codec_round_trip

#: RPC lanes a replica can run on (see :class:`repro.core.config.ModelDeployment`).
TRANSPORT_KINDS = ("inprocess", "shm", "tcp")

#: How long a replica's RPC client waits for one batch response.
RPC_TIMEOUT_S = 30.0


class Replica:
    """One replica of a deployed model behind the batch-predict interface.

    Subclasses implement :meth:`_open` (bring the container up wherever it
    lives and return a connected :class:`RpcClient`) and, when bringing it
    up acquired more than the client, :meth:`_close`.
    """

    def __init__(self, model_id: ModelId, replica_id: int) -> None:
        self.model_id = model_id
        #: Never reused among one version's replicas, except by a replacement.
        self.replica_id = replica_id
        # The wire model name is rendered once: replicas send it with every
        # batch and str(ModelId) is measurable at high batch rates.
        self._model_key = str(model_id)
        self.client: Optional[RpcClient] = None
        self._started = False

    async def _open(self) -> RpcClient:
        raise NotImplementedError

    async def _close(self) -> None:
        """Release whatever :meth:`_open` acquired besides the client."""

    async def start(self) -> None:
        """Bring the container up and open the RPC lane to it (idempotent)."""
        if not self._started:
            self.client = await self._open()
            self._started = True

    async def stop(self) -> None:
        """Close the RPC lane and release the container."""
        if self._started:
            self._started = False
            await self.client.close()
            await self._close()

    async def predict_batch(
        self,
        inputs: Sequence[Any],
        trace: Optional[List[Any]] = None,
        span_log: Optional[list] = None,
        deadlines: Optional[List[float]] = None,
    ) -> RpcResponse:
        """Evaluate one batch on this replica via RPC.

        Safe to call with batches already in flight: the RPC client
        pipelines requests and demultiplexes responses by request id, which
        is what lets the dispatcher overlap encoding the next batch with the
        container's evaluation of the current one.

        ``trace``/``span_log`` propagate the tracing layer's batch trace ids
        and span sink through the RPC client (see :meth:`RpcClient.predict`);
        ``deadlines`` carries per-entry absolute monotonic deadlines the
        container may use to skip already-expired entries.  All default to
        off and cost nothing when unused.
        """
        if not self._started:
            raise ContainerError(self._model_key, "replica is not started")
        inputs = inputs if isinstance(inputs, list) else list(inputs)
        return await self.client.predict(
            self._model_key, inputs, trace=trace, span_log=span_log,
            deadlines=deadlines,
        )

    async def check_health(self, timeout_s: Optional[float] = None) -> bool:
        """Probe the replica over RPC; True only for a healthy response.

        A replica that is not started, does not answer within ``timeout_s``,
        or whose container reports itself unhealthy all probe False.
        """
        if not self._started:
            return False
        try:
            return await self.client.heartbeat(timeout_s=timeout_s)
        except RpcError:
            return False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def name(self) -> str:
        return f"{self.model_id}[{self.replica_id}]"


class ContainerReplica(Replica):
    """A replica whose container runs in this process.

    Parameters
    ----------
    container:
        The model container instance owned exclusively by this replica.
        Evaluation runs in the default thread-pool executor so CPU-heavy
        batches overlap with the event loop (the analogue of the paper's
        per-container worker threads).
    serialize_messages:
        Whether the in-process lane charges the codec's real round trip
        instead of :func:`~repro.rpc.serialization.wire_copy`'s equal copy;
        the shm and tcp lanes always serialize.
    transport:
        RPC lane for this replica: ``"inprocess"`` (the default, a call into
        the container's server), ``"shm"`` (same-host shared-memory rings) or
        ``"tcp"`` (loopback sockets).
    """

    def __init__(
        self,
        model_id: ModelId,
        replica_id: int,
        container: ModelContainer,
        serialize_messages: bool = False,
        transport: str = "inprocess",
    ) -> None:
        if transport not in TRANSPORT_KINDS:
            raise ContainerError(
                str(model_id),
                f"unknown transport '{transport}', expected one of {TRANSPORT_KINDS}",
            )
        if transport == "shm" and not HAS_SHARED_MEMORY:
            raise ContainerError(
                str(model_id),
                "transport 'shm' requires multiprocessing.shared_memory, "
                "which is unavailable on this platform",
            )
        super().__init__(model_id, replica_id)
        self.container = container
        self._transport_kind = transport
        self._serialize_messages = serialize_messages
        self._server: Optional[ContainerRpcServer] = None

    async def _open(self) -> RpcClient:
        if self._transport_kind == "inprocess":
            copy = codec_round_trip if self._serialize_messages else wire_copy
            return DirectRpcClient(ContainerRpcServer(self.container), copy, RPC_TIMEOUT_S)
        if self._transport_kind == "tcp":
            # Bind a loopback listener and cross-connect the two ends.
            listener = TcpListener()
            await listener.start()
            try:
                client_side, server_side = await asyncio.gather(
                    TcpTransport.connect(listener.host, listener.port),
                    listener.accept(),
                )
            finally:
                await listener.close()
        else:
            # The pair a worker daemon and its ingress build across processes:
            # the host end creates the block and a bell socket, the client
            # end attaches by name.  The host is listening from construction,
            # so both bell connections complete before ``accept`` runs.
            host = ShmHostEndpoint(tempfile.gettempdir())
            try:
                client_side = await attach_shm_endpoint(host.descriptor())
            except BaseException:
                host.abort()
                raise
            server_side = await host.accept()
        self._server = ContainerRpcServer(self.container, server_side)
        self._server.start()
        return RpcClient(client_side, timeout_s=RPC_TIMEOUT_S)

    async def _close(self) -> None:
        if self._server is not None:
            await self._server.stop()


#: Builds replica ``replica_id`` of a version.  ``avoid`` lists replicas whose
#: host the new one should not share when there is a choice — the replica
#: being replaced, for placements that span hosts; local builders ignore it.
ReplicaBuilder = Callable[[int, Sequence[Replica]], Replica]


def place_locally(deployment, model_id: ModelId) -> ReplicaBuilder:
    """The default placement: every replica's container is built in-process."""

    def build(replica_id: int, avoid: Sequence[Replica]) -> ContainerReplica:
        container = deployment.container_factory()
        if not isinstance(container, ModelContainer):
            raise ContainerError(
                str(model_id),
                f"container factory returned {type(container).__name__}, "
                "expected a ModelContainer",
            )
        return ContainerReplica(
            model_id,
            replica_id,
            container,
            serialize_messages=deployment.serialize_rpc,
            transport=deployment.transport,
        )

    return build
