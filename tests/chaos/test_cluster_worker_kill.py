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
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cluster.registry import WorkerRegistry
from repro.cluster.remote import WorkerPlacer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend

pytestmark = pytest.mark.chaos

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, "..", "..", "src"))


def spawn_worker(cluster_dir, worker_id):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--cluster-dir",
            str(cluster_dir),
            "--worker-id",
            worker_id,
            "--ttl",
            "1.0",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestWorkerKillNine:
    def test_sigkill_worker_mid_traffic_zero_failed_predictions(self, tmp_path):
        workers = [spawn_worker(tmp_path, f"worker-{i}") for i in range(2)]
        try:
            registry = WorkerRegistry(str(tmp_path))
            deadline = time.monotonic() + 30.0
            while len(registry.live_workers()) < 2:
                assert time.monotonic() < deadline, "workers never became live"
                time.sleep(0.05)

            async def scenario():
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
                        await asyncio.gather(
                            *(one(round_index * 8 + j) for j in range(8))
                        )
                        if round_index == 5:
                            # Mid-traffic: kill -9, no drain, no withdraw.
                            workers[1].kill()
                            killed = True
                        if killed and restarts.value >= 1 and round_index > 20:
                            break
                        await asyncio.sleep(0.01)
                    # Post-recovery traffic must be clean too.
                    await asyncio.gather(*(one(j) for j in range(32)))
                finally:
                    await mgmt.stop()
                return failed, served, restarts.value, clipper

            failed, served, restart_count, clipper = asyncio.run(scenario())
            assert failed == 0, f"{failed} failed predictions leaked to clients"
            assert served >= 80
            # The monitor replaced the dead replica ...
            assert restart_count >= 1
            # ... and recovery migrated it onto the surviving worker: every
            # replica of the model now lives on worker-0.
            record = clipper.model_records()[0]
            homes = {replica.worker.worker_id for replica in record.replicas}
            assert homes == {"worker-0"}
            # The killed worker ages out of the registry (no heartbeat) after
            # the 1 s TTL it announced; this reader sets no TTL of its own.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                live = {w.worker_id for w in registry.live_workers()}
                if live == {"worker-0"}:
                    break
                time.sleep(0.1)
            assert live == {"worker-0"}
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in workers:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
