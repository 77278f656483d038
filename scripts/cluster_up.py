#!/usr/bin/env python
"""Bring up a local serving cluster: N worker daemons + one ingress.

Spawns the fleet through :class:`repro.cluster.supervisor.Supervisor`,
prints ``CLUSTER_READY <ingress-port>`` once every process is up, then
monitors: workers that die are restarted, and SIGTERM/SIGINT drains the
whole fleet (ingress first, then workers) before exiting.

Usage::

    PYTHONPATH=src python scripts/cluster_up.py --workers 2 \
        [--cluster-dir DIR] [--app NAME] [--factories pkg.module:ATTR]

With no ``--cluster-dir`` a temporary directory is created and removed on
exit.  Clients learn the HTTP port from the ``CLUSTER_READY`` line (the
supervisor read it from the ingress's ``INGRESS_READY <port>`` line).
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.supervisor import Supervisor  # noqa: E402


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

    cluster_dir = args.cluster_dir
    made_tmp = False
    if not cluster_dir:
        cluster_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        made_tmp = True
    supervisor = Supervisor(
        cluster_dir=cluster_dir,
        num_workers=args.workers,
        app_name=args.app,
        factories_spec=args.factories,
        no_shm=args.no_shm,
    )
    try:
        port = supervisor.start()
        print(f"CLUSTER_READY {port}", flush=True)
        print(f"cluster dir: {cluster_dir}", flush=True)
        supervisor.run_forever()
    finally:
        supervisor.shutdown()
        if made_tmp:
            shutil.rmtree(cluster_dir, ignore_errors=True)
    print("CLUSTER_STOPPED", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
