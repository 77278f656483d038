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

Run one with ``python -m repro.cluster.ingress --cluster-dir DIR``; once
the listener is bound it prints ``INGRESS_READY <port>`` — the one place a
supervisor or client learns the port — and it drains gracefully on SIGTERM.
How long a worker stays live without a heartbeat is the worker's own
announced TTL, so the ingress has no liveness setting.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from repro.api.http import HttpApiServer, create_server
from repro.cluster.factories import FactoryMap, default_factories, load_factories
from repro.cluster.registry import WorkerRegistry
from repro.cluster.remote import WorkerPlacer
from repro.cluster.worker import serve_until_signalled
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig
from repro.core.frontend import QueryFrontend
from repro.management.frontend import ManagementFrontend
from repro.rpc.shm import start_resource_tracker


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
    ) -> None:
        self.registry = WorkerRegistry(cluster_dir)
        self.placer = WorkerPlacer(self.registry)
        self.config = config or ClipperConfig(app_name=app_name, allow_empty_start=True)
        self.clipper = Clipper(self.config, placement=self.placer.replica_builder)
        self.query = QueryFrontend()
        self.query.register_application(self.clipper)
        self.admin = ManagementFrontend()
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
    )
    return await serve_until_signalled(ingress, "INGRESS", args.drain_timeout)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="repro cluster ingress tier")
    parser.add_argument("--cluster-dir", required=True, help="shared registry dir")
    parser.add_argument("--app", default="default-app")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--factories", default="", help="pkg.module:ATTR factory map override"
    )
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    args = parser.parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    sys.exit(main())
