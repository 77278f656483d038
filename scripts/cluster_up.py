#!/usr/bin/env python
"""Bring up a local serving cluster: N worker daemons + one ingress.

Runs a :class:`repro.cluster.supervisor.Supervisor` through the lifecycle
every cluster process shares (:func:`repro.cluster.worker.serve_until_signalled`):
it prints ``CLUSTER_READY <ingress-port>`` once every process is up,
restarts workers that die, and on SIGTERM/SIGINT drains the whole fleet
(ingress first, then workers) and prints ``CLUSTER_DRAINED``.  An ingress
that exits on its own is not restarted (a new one would hold no deployments
and might bind another port): the workers are stopped, the ingress's last
output lines are printed to stderr, and the script exits with status 1.

Usage::

    PYTHONPATH=src python scripts/cluster_up.py --workers 2 \
        [--cluster-dir DIR] [--app NAME] [--factories pkg.module:ATTR] [--no-shm]

With no ``--cluster-dir`` a temporary directory is created and removed on
exit.  Clients learn the HTTP port from the ``CLUSTER_READY`` line (the
supervisor read it from the ingress's ``INGRESS_READY <port>`` line).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.supervisor import Supervisor  # noqa: E402
from repro.cluster.worker import serve_until_signalled  # noqa: E402


async def serve(supervisor: Supervisor) -> int:
    """Serve the fleet until a signal drains it (0) or its ingress exits (1)."""
    serving = asyncio.ensure_future(serve_until_signalled(supervisor, "CLUSTER"))
    lost = asyncio.ensure_future(supervisor.ingress_exited.wait())
    await asyncio.wait([serving, lost], return_when=asyncio.FIRST_COMPLETED)
    if serving.done():
        lost.cancel()
        return serving.result()
    serving.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serving
    await supervisor.drain()
    tail = "\n".join(supervisor.ingress.tail)
    print(f"the ingress exited; its last output:\n{tail}", file=sys.stderr, flush=True)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--cluster-dir", default="", help="shared registry dir (default: a tmp dir)"
    )
    parser.add_argument("--app", default="default-app")
    parser.add_argument(
        "--factories", default="", help="pkg.module:ATTR factory map override"
    )
    parser.add_argument("--no-shm", action="store_true", help="disable the shm lane")
    args = parser.parse_args()

    cluster_dir = args.cluster_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    print(f"cluster dir: {cluster_dir}", flush=True)
    supervisor = Supervisor(
        cluster_dir=cluster_dir,
        num_workers=args.workers,
        app_name=args.app,
        factories_spec=args.factories,
        no_shm=args.no_shm,
    )
    try:
        return asyncio.run(serve(supervisor))
    finally:
        if not args.cluster_dir:
            shutil.rmtree(cluster_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
