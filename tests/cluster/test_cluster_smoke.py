"""Cluster tier (``pytest --cluster``): the full fleet as real processes.

Spawns ``scripts/cluster_up.py`` through :class:`repro.cluster.supervisor.Child`
(supervisor → 2 worker daemons + 1 ingress, every one its own OS process)
over the test's own cluster directory, drives the quickstart lifecycle over
plain HTTP — deploy, predict, scale, staged rollout, canary, promote —
checks the replicas actually spread across both workers, then SIGTERMs the
supervisor and asserts a clean drain: exit code 0 after ``CLUSTER_DRAINED``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys

import pytest

from repro.client import AsyncAdminClient, AsyncClipperClient, ClipperClientError
from repro.cluster.registry import WorkerRegistry
from repro.cluster.supervisor import Child

pytestmark = pytest.mark.cluster

HERE = os.path.dirname(os.path.abspath(__file__))
CLUSTER_UP = os.path.join(HERE, "..", "..", "scripts", "cluster_up.py")

APP = "default-app"
#: How long the supervisor may take to drain the whole fleet.
DRAIN_S = 30.0


def run_cluster(cluster_dir, scenario):
    """Run ``cluster_up.py --workers 2`` over ``cluster_dir`` while
    ``scenario(port)`` runs, then SIGTERM it; assert it drained cleanly."""

    async def main():
        cluster = await Child.spawn(
            "cluster_up",
            [sys.executable, CLUSTER_UP, "--workers", "2", "--cluster-dir", str(cluster_dir)],
        )
        try:
            await scenario(await cluster.ready("CLUSTER"))
        finally:
            code = await cluster.stop(DRAIN_S)
        return code, list(cluster.tail)

    code, tail = asyncio.run(main())
    assert code == 0, f"cluster exited {code}; output: {tail}"
    assert "CLUSTER_DRAINED" in tail, tail


async def until(condition, timeout_s=30.0, what="condition"):
    """Poll the coroutine function ``condition`` until it returns a truthy value."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not (result := await condition()):
        assert asyncio.get_running_loop().time() < deadline, f"{what} never held"
        await asyncio.sleep(0.1)
    return result


def test_cluster_smoke_lifecycle(tmp_path):
    async def lifecycle(port):
        async with AsyncAdminClient("127.0.0.1", port) as admin:
            await admin.deploy(APP, "m", factory="echo", version=1, num_replicas=2)
            async with AsyncClipperClient("127.0.0.1", port) as client:
                for _ in range(20):
                    prediction = await client.predict(APP, [0.0, 0.0])
                    assert prediction.output == 1

            # The two replicas landed on distinct worker daemons.  The
            # per-replica health map fills in on the monitor's first probe
            # sweep, so poll for it briefly.
            async def probed():
                return set((await admin.health(APP))["health"])

            replica_names = await until(probed, what="a health probe")
            homes = {name.rsplit("@", 1)[1] for name in replica_names}
            assert homes == {"worker-0", "worker-1"}

            # Scale up, staged rollout, canary, promote — all over HTTP, all
            # placing onto remote workers.
            await admin.scale(APP, "m", 3)
            await admin.deploy(APP, "m", factory="noop", version=2, activate=False)
            await admin.start_canary(APP, "m", version=2, weight=0.5)
            await admin.promote(APP, "m")
            description = await admin.health(APP)
            assert "m:2" in description["serving"]
            async with AsyncClipperClient("127.0.0.1", port) as client:
                prediction = await client.predict(APP, [0.0, 0.0])
                assert prediction.output == 0  # the promoted noop answers

    run_cluster(tmp_path, lifecycle)


def test_cluster_restarts_dead_worker(tmp_path):
    registry = WorkerRegistry(str(tmp_path))
    pids = {}

    def announced_pid():
        live = {w.worker_id: w.pid for w in registry.live_workers()}
        return live.get("worker-0")

    async def check(port):
        async with AsyncAdminClient("127.0.0.1", port) as admin:
            await admin.deploy(APP, "m", factory="echo", version=1)
        # Murder this run's worker-0 out from under the supervisor: the pid
        # it announced in this cluster directory, no drain, no withdraw.
        pids["killed"] = announced_pid()
        assert pids["killed"], "worker-0 never announced itself"
        os.kill(pids["killed"], signal.SIGKILL)

        async def respawned():
            pid = announced_pid()
            return pid if pid not in (None, pids["killed"]) else None

        pids["respawned"] = await until(respawned, what="a live respawned worker-0")

        async with AsyncClipperClient("127.0.0.1", port) as client:

            async def answers():
                try:
                    prediction = await client.predict(APP, [0.0])
                except ClipperClientError:
                    return False
                return prediction.output == 1 and not prediction.default_used

            await until(answers, what="a prediction after the restart")

    run_cluster(tmp_path, check)
    # The drain reaped every worker: neither pid names a process any more.
    for pid in pids.values():
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
