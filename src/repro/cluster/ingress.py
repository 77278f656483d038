"""The ingress tier: HTTP edge + Clipper over remote worker replicas.

The ingress is an ordinary single-application serving stack — ``Clipper``
behind the query/management frontends behind ``HttpApiServer`` — whose
``Clipper`` is constructed with the cluster's placement callable,
:meth:`~repro.cluster.remote.WorkerPlacer.replica_builder`: every
deployment carrying a ``factory_name`` gets its replicas built as
:class:`~repro.cluster.remote.RemoteReplica` spread across the live workers
of a shared :class:`~repro.cluster.registry.WorkerRegistry`.  All admin
verbs — deploy, scale, rollout, canary — arrive over the same REST surface
as before and transparently drive cluster placements.

Run one with ``python -m repro.cluster.ingress --cluster-dir DIR``; it
writes ``<cluster_dir>/ingress.json`` (host, port, pid) once the listener
is bound so supervisors and clients can find it, and drains gracefully on
SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Optional

from repro.api.http import HttpApiServer, create_server
from repro.cluster.factories import FactoryMap, default_factories, load_factories
from repro.cluster.registry import DEFAULT_TTL_S, WorkerRegistry, write_json_atomic
from repro.cluster.remote import WorkerPlacer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig
from repro.core.frontend import QueryFrontend
from repro.management.frontend import ManagementFrontend
from repro.rpc.shm import start_resource_tracker

#: File the running ingress drops into the cluster dir for discovery.
INGRESS_FILE = "ingress.json"


class IngressTier:
    """One ingress process: registry-backed placement + the REST edge."""

    def __init__(
        self,
        cluster_dir: str,
        app_name: str = "default-app",
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ClipperConfig] = None,
        factories: Optional[FactoryMap] = None,
        ttl_s: float = DEFAULT_TTL_S,
        health_kwargs: Optional[dict] = None,
    ) -> None:
        self.registry = WorkerRegistry(cluster_dir)
        self.placer = WorkerPlacer(self.registry, ttl_s=ttl_s)
        self.config = config or ClipperConfig(app_name=app_name, allow_empty_start=True)
        self.clipper = Clipper(self.config, placement=self.placer.replica_builder)
        self.query = QueryFrontend()
        self.query.register_application(self.clipper)
        self.admin = ManagementFrontend(health_kwargs=health_kwargs)
        self.admin.register_application(self.clipper)
        self._factories = dict(factories) if factories is not None else default_factories()
        self.server: HttpApiServer = create_server(
            query=self.query,
            admin=self.admin,
            factories=self._factories,
            host=host,
            port=port,
        )

    @property
    def port(self) -> Optional[int]:
        return self.server.port

    async def start(self) -> None:
        await self.server.start()

    async def drain(self, timeout_s: float = 5.0) -> None:
        await self.server.drain(timeout_s=timeout_s)

    async def stop(self) -> None:
        await self.server.stop()


def _ingress_path(cluster_dir: str) -> str:
    return os.path.join(os.path.abspath(cluster_dir), INGRESS_FILE)


def read_ingress(cluster_dir: str) -> Optional[dict]:
    """The running ingress's discovery record, or None."""
    try:
        with open(_ingress_path(cluster_dir), "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


async def _amain(args: argparse.Namespace) -> int:
    # Replicas placed on same-host workers attach shared-memory lanes.
    start_resource_tracker()
    factories = load_factories(args.factories) if args.factories else None
    ingress = IngressTier(
        cluster_dir=args.cluster_dir,
        app_name=args.app,
        host=args.host,
        port=args.port,
        factories=factories,
        ttl_s=args.ttl,
    )
    await ingress.start()
    path = _ingress_path(args.cluster_dir)
    record = {
        "host": args.host,
        "port": ingress.port,
        "pid": os.getpid(),
        "app_name": args.app,
    }
    write_json_atomic(path, record)
    loop = asyncio.get_running_loop()
    drained = loop.create_future()

    def _on_sigterm() -> None:
        if not drained.done():
            drained.set_result(None)

    loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
    loop.add_signal_handler(signal.SIGINT, _on_sigterm)
    print(f"INGRESS_READY {ingress.port}", flush=True)
    await drained
    try:
        os.remove(path)
    except OSError:
        pass
    await ingress.drain(timeout_s=args.drain_timeout)
    print("INGRESS_DRAINED", flush=True)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="repro cluster ingress tier")
    parser.add_argument("--cluster-dir", required=True, help="shared registry dir")
    parser.add_argument("--app", default="default-app")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--ttl", type=float, default=DEFAULT_TTL_S)
    parser.add_argument(
        "--factories", default="", help="pkg.module:ATTR factory map override"
    )
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    args = parser.parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    sys.exit(main())
