"""Chaos tier: SIGKILL a worker daemon mid-traffic, zero failed predictions.

Two real worker daemon processes serve replicas of one model for an
in-process ingress-side Clipper.  Mid-traffic one worker is killed with
``kill -9`` — no drain, no goodbye.  The shared-memory lane's doorbell
hangup (or the tcp reset) fails the in-flight batch, batch retries mask the
failure, the health monitor quarantines the dead replica and re-places it on
the surviving worker, and the client-visible failure count must stay zero.
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np
import pytest

from repro.cluster.registry import WorkerRegistry
from repro.cluster.remote import WorkerPlacer
from repro.cluster.supervisor import STOP_TIMEOUT_S, Child
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend

pytestmark = pytest.mark.chaos


async def spawn_worker(cluster_dir, worker_id):
    """A worker daemon announcing a 1 s TTL, once it has printed its ready line."""
    worker = await Child.spawn(
        worker_id,
        [
            sys.executable, "-m", "repro.cluster.worker",
            "--cluster-dir", str(cluster_dir), "--worker-id", worker_id, "--ttl", "1.0",
        ],
    )
    try:
        await worker.ready("WORKER")
    except BaseException:
        await worker.stop(STOP_TIMEOUT_S)
        raise
    return worker


class TestWorkerKillNine:
    def test_sigkill_worker_mid_traffic_zero_failed_predictions(self, tmp_path):
        async def scenario():
            workers = []
            try:
                for i in range(2):
                    workers.append(await spawn_worker(tmp_path, f"worker-{i}"))
                return await traffic(workers)
            finally:
                for worker in workers:
                    await worker.stop(STOP_TIMEOUT_S)

        async def traffic(workers):
            registry = WorkerRegistry(str(tmp_path))
            assert len(registry.live_workers()) == 2
            placer = WorkerPlacer(registry)
            clipper = Clipper(
                ClipperConfig(
                    app_name="app",
                    latency_slo_ms=1000.0,
                    selection_policy="single",
                ),
                placement=placer.replica_builder,
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="m",
                    container_factory=lambda: None,  # never called: remote
                    factory_name="echo",
                    num_replicas=2,
                    max_batch_retries=8,
                )
            )
            mgmt = ManagementFrontend(
                monitor_health=True,
                health_kwargs={
                    "probe_interval_s": 0.05,
                    "failure_threshold": 1,
                    "restart_backoff_s": 0.02,
                },
                manage_canaries=False,
            )
            mgmt.register_application(clipper)
            await mgmt.start()

            failed = 0
            served = 0
            restarts = clipper.metrics.counter("health.restarts")

            async def one(index):
                nonlocal failed, served
                try:
                    prediction = await clipper.predict(
                        Query(
                            app_name="app",
                            input=np.zeros(4),
                            user_id=f"user-{index % 64}",
                        )
                    )
                    assert prediction.output == 1
                    served += 1
                except Exception:
                    failed += 1

            killed = False
            try:
                for round_index in range(400):
                    await asyncio.gather(*(one(round_index * 8 + j) for j in range(8)))
                    if round_index == 5:
                        # Mid-traffic: kill -9, no drain, no withdraw.
                        workers[1].proc.kill()
                        killed = True
                    if killed and restarts.value >= 1 and round_index > 20:
                        break
                    await asyncio.sleep(0.01)
                # Post-recovery traffic must be clean too.
                await asyncio.gather(*(one(j) for j in range(32)))
            finally:
                await mgmt.stop()
            # The killed worker ages out of the registry (no heartbeat) after
            # the 1 s TTL it announced; this reader sets no TTL of its own.
            # worker-0 is still up here: it withdraws only when stopped.
            deadline = asyncio.get_running_loop().time() + 10.0
            while asyncio.get_running_loop().time() < deadline:
                live = {w.worker_id for w in registry.live_workers()}
                if live == {"worker-0"}:
                    break
                await asyncio.sleep(0.1)
            return failed, served, restarts.value, clipper, live

        failed, served, restart_count, clipper, live = asyncio.run(scenario())
        assert failed == 0, f"{failed} failed predictions leaked to clients"
        assert served >= 80
        # The monitor replaced the dead replica ...
        assert restart_count >= 1
        # ... and recovery migrated it onto the surviving worker: every
        # replica of the model now lives on worker-0.
        record = clipper.model_records()[0]
        homes = {replica.worker.worker_id for replica in record.replicas}
        assert homes == {"worker-0"}
        assert live == {"worker-0"}
