"""Cluster quickstart: two worker daemons, one ingress, admin over HTTP.

This example brings up the paper's actual deployment shape (Figure 1) as
real OS processes and drives it purely through the client SDK:

1. *Bring up the fleet* — a :class:`repro.cluster.supervisor.Supervisor`,
   awaited on this program's event loop, spawns two worker daemons (each
   hosting model containers behind the container RPC protocol,
   shared-memory rings negotiated automatically on this host) plus one
   ingress process (HTTP edge + Clipper whose replica sets attach to the
   workers).
2. *Deploy across workers* — the ordinary admin verb ``deploy`` with a
   *named* container factory; the ingress's placement hook spreads the
   replicas round-robin over the live workers in the shared registry.
3. *Serve, scale, canary, promote* — predictions and every admin verb run
   over plain HTTP against the ingress; placement stays transparent.
4. *Drain* — the supervisor SIGTERMs the ingress first, then the workers;
   every in-flight batch finishes before the processes exit.

Run with::

    PYTHONPATH=src python examples/cluster_quickstart.py
"""

from __future__ import annotations

import asyncio
import tempfile

from repro.client import AsyncAdminClient, AsyncClipperClient
from repro.cluster.supervisor import Supervisor

APP = "default-app"


async def drive(port: int) -> None:
    async with AsyncAdminClient("127.0.0.1", port) as admin:
        # Deploy v1 with two replicas.  "echo" names a factory every worker
        # resolves locally (a callable cannot cross a process boundary).
        await admin.deploy(APP, "digits", factory="echo", version=1, num_replicas=2)
        info = await admin.health(APP)
        print(f"serving: {info['serving']}  replicas: {info['replicas']}")

        async with AsyncClipperClient("127.0.0.1", port) as client:
            outputs = [
                (await client.predict(APP, [0.0, 1.0, 2.0])).output
                for _ in range(5)
            ]
        print(f"predictions from v1: {outputs}")

        # Scale out: the third replica lands on whichever worker is next in
        # the round-robin.
        await admin.scale(APP, "digits", 3)
        print("scaled digits to 3 replicas across the workers")

        # Stage v2, canary half the traffic to it, then promote.
        await admin.deploy(APP, "digits", factory="noop", version=2, activate=False)
        await admin.start_canary(APP, "digits", version=2, weight=0.5)
        print("canary: digits:2 at weight 0.5")
        await admin.promote(APP, "digits")
        info = await admin.health(APP)
        print(f"promoted: serving {info['serving']}")

        async with AsyncClipperClient("127.0.0.1", port) as client:
            outputs = [
                (await client.predict(APP, [0.0, 1.0, 2.0])).output
                for _ in range(5)
            ]
        print(f"predictions from v2: {outputs}")


async def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cluster-qs-") as cluster_dir:
        supervisor = Supervisor(cluster_dir=cluster_dir, num_workers=2, app_name=APP)
        await supervisor.start()
        try:
            print(f"cluster up: 2 workers + ingress on 127.0.0.1:{supervisor.port}")
            await drive(supervisor.port)
        finally:
            await supervisor.drain()
            print("cluster drained")


if __name__ == "__main__":
    asyncio.run(main())
