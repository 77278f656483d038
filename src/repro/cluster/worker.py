"""The worker daemon: one OS process hosting model containers for the cluster.

A worker binds a loopback control port, announces itself (endpoints, shm
capability and its liveness TTL) into the shared
:class:`~repro.cluster.registry.WorkerRegistry`, and heartbeats the
announcement so the ingress can tell live workers from dead ones.  Each
inbound control connection carries one request:

``{"op": "launch", "factory": ..., "transport": ...}``
    build a fresh container from the named factory and serve it over the
    container RPC protocol.  On the ``tcp`` lane the control connection
    *becomes* the data connection; on the ``shm`` lane the worker creates a
    shared-memory ring pair, replies with its attach descriptor, and serves
    over the rings once the peer's doorbells connect.

The container lives exactly as long as its data lane: when the ingress
closes the connection (undeploy, scale-down, replica replacement) — or
vanishes — the serve loop ends and the container is reaped.  SIGTERM causes
a graceful drain: withdraw the announcement, stop accepting, finish every
in-flight batch, exit.  :func:`serve_until_signalled` is that process
lifecycle, shared with the ingress.

Run one with ``python -m repro.cluster.worker --cluster-dir DIR --worker-id ID``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import socket
import sys
import tempfile
from typing import Optional, Set

from repro.cluster.factories import FactoryMap, default_factories, load_factories
from repro.cluster.registry import DEFAULT_TTL_S, WorkerAnnouncement, WorkerRegistry
from repro.core.exceptions import RpcError
from repro.rpc.server import ContainerRpcServer
from repro.rpc.shm import HAS_SHARED_MEMORY, ShmHostEndpoint, start_resource_tracker
from repro.rpc.transport import TcpListener, Transport

#: How long the worker waits for a shm peer to connect its doorbells.
SHM_ACCEPT_TIMEOUT_S = 10.0


class WorkerDaemon:
    """Hosts model containers behind the container RPC protocol."""

    def __init__(
        self,
        worker_id: str,
        cluster_dir: str,
        factories: Optional[FactoryMap] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ttl_s: float = DEFAULT_TTL_S,
        shm_enabled: bool = True,
    ) -> None:
        self.worker_id = worker_id
        self.registry = WorkerRegistry(cluster_dir)
        self._factories = dict(factories) if factories is not None else default_factories()
        self._listener = TcpListener(host=host, port=port)
        self._ttl_s = ttl_s
        self._shm_enabled = shm_enabled and HAS_SHARED_MEMORY
        self._announcement: Optional[WorkerAnnouncement] = None
        self._servers: Set[ContainerRpcServer] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._accept_task: Optional[asyncio.Task] = None
        self._heartbeat_task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._listener.port

    async def start(self) -> None:
        """Bind the control port, announce into the registry, begin serving."""
        await self._listener.start()
        self._announcement = WorkerAnnouncement(
            worker_id=self.worker_id,
            host=socket.gethostname(),
            pid=os.getpid(),
            tcp_host=self._listener.host,
            tcp_port=self._listener.port,
            shm_supported=self._shm_enabled,
            ttl_s=self._ttl_s,
        )
        self.registry.announce(self._announcement)
        loop = asyncio.get_running_loop()
        self._accept_task = loop.create_task(self._accept_loop())
        self._heartbeat_task = loop.create_task(self._heartbeat_loop())

    async def _heartbeat_loop(self) -> None:
        interval = max(0.05, min(1.0, self._ttl_s / 3.0))
        while True:
            await asyncio.sleep(interval)
            try:
                self.registry.announce(self._announcement)
            except OSError:
                pass  # registry dir vanished mid-shutdown; next beat retries

    async def _accept_loop(self) -> None:
        while True:
            transport = await self._listener.accept()
            task = asyncio.get_running_loop().create_task(
                self._serve_connection(transport)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    # -- the control protocol ----------------------------------------------------

    async def _serve_connection(self, control: Transport) -> None:
        """Answer the connection's one request; a launch keeps it as its lane."""
        try:
            message = await control.recv()
            op = message.get("op")
            if op == "launch":
                await self._handle_launch(control, message)
            else:
                await control.send({"ok": False, "error": f"unknown op {op!r}"})
        except RpcError:
            return
        finally:
            await control.close()

    async def _handle_launch(self, control: Transport, message: dict) -> None:
        factory_name = str(message.get("factory", ""))
        lane = str(message.get("transport", "tcp"))
        factory = self._factories.get(factory_name)
        if factory is None:
            await control.send(
                {
                    "ok": False,
                    "error": f"worker {self.worker_id} has no container factory "
                    f"named {factory_name!r}",
                }
            )
            return
        if lane == "shm" and not self._shm_enabled:
            await control.send(
                {"ok": False, "error": f"worker {self.worker_id} has shm disabled"}
            )
            return
        try:
            container = factory()
        except Exception as exc:
            await control.send(
                {"ok": False, "error": f"container factory failed: {exc}"}
            )
            return
        if lane == "shm":
            endpoint = ShmHostEndpoint(tempfile.gettempdir())
            await control.send({"ok": True, "shm": endpoint.descriptor()})
            try:
                data = await endpoint.accept(timeout_s=SHM_ACCEPT_TIMEOUT_S)
            except RpcError:
                return  # accept() already tore the endpoint down
            await control.close()
        else:
            await control.send({"ok": True})
            data = control
        server = ContainerRpcServer(container, data)
        self._servers.add(server)
        try:
            await server.serve_forever()
        finally:
            self._servers.discard(server)
            await data.close()

    # -- shutdown ----------------------------------------------------------------

    async def _withdraw(self) -> None:
        """Stop heartbeating, leave the registry and stop accepting."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        self.registry.withdraw(self.worker_id)
        await self._listener.close()

    async def drain(self, timeout_s: float = 5.0) -> None:
        """Graceful SIGTERM path: withdraw, finish in-flight work, stop."""
        # Leave the registry first so the placer stops choosing this worker.
        await self._withdraw()
        await asyncio.gather(
            *(server.drain(timeout_s=timeout_s) for server in list(self._servers)),
            return_exceptions=True,
        )
        await self.stop()

    async def stop(self) -> None:
        """Hard stop: cancel everything and leave the registry."""
        await self._withdraw()
        for server in list(self._servers):
            await server.stop()
        for task in (self._accept_task, self._heartbeat_task, *list(self._tasks)):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, RpcError):
                    pass
        self._accept_task = None
        self._heartbeat_task = None


async def serve_until_signalled(service, marker: str, drain_timeout_s: float) -> int:
    """One cluster process's life: start, print ``<marker>_READY <port>``,
    wait for SIGTERM or SIGINT, drain, print ``<marker>_DRAINED``.

    ``service`` is a :class:`WorkerDaemon` or an ingress tier.  The ready
    line is the spawner's synchronization point and how it learns the port.
    """
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    print(f"{marker}_READY {service.port}", flush=True)
    await stop.wait()
    await service.drain(timeout_s=drain_timeout_s)
    print(f"{marker}_DRAINED", flush=True)
    return 0


async def _amain(args: argparse.Namespace) -> int:
    if not args.no_shm:
        start_resource_tracker()
    factories = load_factories(args.factories) if args.factories else None
    daemon = WorkerDaemon(
        worker_id=args.worker_id,
        cluster_dir=args.cluster_dir,
        factories=factories,
        host=args.host,
        port=args.port,
        ttl_s=args.ttl,
        shm_enabled=not args.no_shm,
    )
    return await serve_until_signalled(daemon, "WORKER", args.drain_timeout)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="repro cluster worker daemon")
    parser.add_argument("--cluster-dir", required=True, help="shared registry dir")
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--ttl", type=float, default=DEFAULT_TTL_S, help="announced liveness TTL")
    parser.add_argument(
        "--factories", default="", help="pkg.module:ATTR factory map override"
    )
    parser.add_argument("--no-shm", action="store_true", help="disable the shm lane")
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    args = parser.parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    sys.exit(main())
