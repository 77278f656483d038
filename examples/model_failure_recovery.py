"""Health-driven replica recovery on a live serving instance.

Runs a real :class:`~repro.core.clipper.Clipper` with three replicas of one
model behind the management plane, then kills one replica's container
mid-traffic — the in-process analogue of ``docker kill`` on a model
container.  The :class:`~repro.management.health.HealthMonitor` detects the
death (failed heartbeat probes plus the dispatcher's batch failures),
quarantines the replica out of dispatch, restarts it with a fresh container
from the deployment's factory, and re-attaches it to the live batching
queue — while the surviving replicas keep serving every query.

The demo prints per-phase latency (before the kill / while recovering /
after recovery), the health ledger of every replica, and the failure count,
showing that the kill is absorbed: zero failed predictions and a steady p99.

Run with::

    PYTHONPATH=src:benchmarks python examples/model_failure_recovery.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from paperkit.reporting import format_table, summarize_latencies
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend

APP = "recovery-demo"
MODEL = "clf"
NUM_REPLICAS = 3
PHASE_SECONDS = 1.5
QUERY_DIM = 32


async def drive_phase(clipper: Clipper, rng: np.random.Generator, seconds: float):
    """Issue steady traffic for one phase; returns (latencies_ms, failures)."""
    latencies, failures = [], 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        x = rng.standard_normal(QUERY_DIM)
        start = time.perf_counter()
        try:
            await clipper.predict(Query(app_name=APP, input=x))
            latencies.append((time.perf_counter() - start) * 1000.0)
        except Exception:
            failures += 1
        await asyncio.sleep(0.001)
    return latencies, failures


async def main() -> None:
    factory = TrackingFactory(lambda: KillableContainer(output=1))
    clipper = Clipper(
        ClipperConfig(app_name=APP, selection_policy="single", latency_slo_ms=250.0)
    )
    clipper.deploy_model(
        ModelDeployment(name=MODEL, container_factory=factory, num_replicas=NUM_REPLICAS)
    )
    mgmt = ManagementFrontend(
        health_kwargs=dict(
            probe_interval_s=0.02, failure_threshold=2, restart_backoff_s=0.02
        )
    )
    mgmt.register_application(clipper)
    await mgmt.start()
    rng = np.random.default_rng(0)

    print(f"{NUM_REPLICAS} replicas serving; phase 1: healthy baseline")
    baseline, baseline_failures = await drive_phase(clipper, rng, PHASE_SECONDS)

    victim = factory.instances[0]
    victim.kill()
    print("killed one replica's container; phase 2: traffic during recovery")
    during, during_failures = await drive_phase(clipper, rng, PHASE_SECONDS)

    # Wait (briefly) until the monitor reports every replica healthy again.
    monitor = mgmt.health_monitor(APP)
    wait_deadline = time.monotonic() + 5.0
    while time.monotonic() < wait_deadline:
        statuses = monitor.status().values()
        if statuses and all(s.state == "healthy" for s in statuses):
            break
        await asyncio.sleep(0.02)

    print("phase 3: after recovery")
    after, after_failures = await drive_phase(clipper, rng, PHASE_SECONDS)

    rows = []
    for phase, latencies, failures in (
        ("healthy baseline", baseline, baseline_failures),
        ("during kill+recovery", during, during_failures),
        ("after recovery", after, after_failures),
    ):
        stats = summarize_latencies(latencies)
        rows.append(
            {
                "phase": phase,
                "queries": stats["count"],
                "p50_ms": round(stats["p50"], 3),
                "p99_ms": round(stats["p99"], 3),
                "failed": failures,
            }
        )
    print(format_table(rows, title="Prediction latency across the replica kill"))

    health_rows = [
        {
            "replica": name,
            "state": status.state,
            "probes": status.probes,
            "quarantines": status.quarantines,
            "restarts": status.restarts,
        }
        for name, status in sorted(monitor.status().items())
    ]
    print(format_table(health_rows, title="Health ledger (from the HealthMonitor)"))

    snapshot = clipper.metrics.snapshot()
    print(
        "containers built by the factory: "
        f"{len(factory.instances)} (= {NUM_REPLICAS} initial + restarts)\n"
        f"health counters: quarantines={snapshot.counters['health.quarantines']} "
        f"restarts={snapshot.counters['health.restarts']} "
        f"recoveries={snapshot.counters['health.recoveries']}"
    )
    total_failures = baseline_failures + during_failures + after_failures
    print(f"failed predictions across all phases: {total_failures}")
    await mgmt.stop()


if __name__ == "__main__":
    asyncio.run(main())
