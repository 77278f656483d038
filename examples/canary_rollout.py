"""Weighted canary rollout with metrics-driven promotion.

Runs a real :class:`~repro.core.clipper.Clipper` behind the management
plane, then rolls a new model version out the way a production fleet would:
deploy v2 *staged*, start a canary at 10% of traffic, ramp it to 50%, and
let the :class:`~repro.routing.controller.CanaryController` promote it once
the per-arm metrics agree it is healthy.

Routing is deterministic: each user id hashes (seeded) onto one arm, so a
given user never flaps between versions mid-rollout, and the observed
traffic share tracks the configured weight.  While the canary is in flight
the routing layer attributes every query's latency and outcome to the arm
that served it — the per-arm p99 and error-rate tables printed after each
phase are exactly the evidence the controller promotes (or aborts) on.

Run with::

    PYTHONPATH=src:benchmarks python examples/canary_rollout.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from paperkit.reporting import format_table
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend

APP = "canary-demo"
MODEL = "clf"
NUM_USERS = 200
PHASE_SECONDS = 1.0


def make_deployment(version: int) -> ModelDeployment:
    return ModelDeployment(
        name=MODEL,
        container_factory=lambda: NoOpContainer(output=version),
        version=version,
        num_replicas=2,
    )


async def drive_phase(clipper: Clipper, rng: np.random.Generator, seconds: float):
    """Steady traffic from a rotating user population; returns (count, failures)."""
    count, failures = 0, 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        user = f"user-{rng.integers(NUM_USERS)}"
        x = rng.standard_normal(8)
        try:
            await clipper.predict(Query(app_name=APP, input=x, user_id=user))
            count += 1
        except Exception:
            failures += 1
        await asyncio.sleep(0.0005)
    return count, failures


def arm_table(clipper: Clipper, title: str) -> str:
    """Per-arm attribution from the routing layer's metric handles."""
    rows = []
    for key in sorted(set(clipper.routing.serving_keys())):
        arm = clipper.routing.arm_metrics(key)
        split = clipper.routing.split_for(MODEL)
        rows.append(
            {
                "arm": key,
                "weight": round(split.weight_of(key), 2) if split else "-",
                "requests": arm.requests.value,
                "errors": arm.errors.value,
                "error_rate": round(arm.error_rate(), 4),
                "p50_ms": round(arm.latency.p50(), 3),
                "p99_ms": round(arm.latency.p99(), 3),
            }
        )
    return format_table(rows, title=title)


async def main() -> None:
    clipper = Clipper(
        ClipperConfig(app_name=APP, selection_policy="single", latency_slo_ms=250.0)
    )
    clipper.deploy_model(make_deployment(version=1))
    mgmt = ManagementFrontend(
        health_kwargs=dict(probe_interval_s=0.05),
        canary_kwargs=dict(
            check_interval_s=0.05, min_requests=250, healthy_checks_to_promote=4
        ),
    )
    mgmt.register_application(clipper)
    await mgmt.start()
    rng = np.random.default_rng(0)

    print(f"v1 serving; baseline traffic from {NUM_USERS} users")
    await drive_phase(clipper, rng, PHASE_SECONDS)

    print("deploying v2 (staged) and starting a 10% canary")
    await mgmt.deploy_model(APP, make_deployment(version=2))
    split = await mgmt.start_canary(APP, MODEL, 2, weight=0.10)
    assigned = sum(split.arm_for(f"user-{u}") == "clf:2" for u in range(NUM_USERS))
    print(
        f"deterministic assignment: {assigned}/{NUM_USERS} users pinned to the "
        f"canary arm (configured weight 0.10)"
    )
    await drive_phase(clipper, rng, PHASE_SECONDS)
    print(arm_table(clipper, "Per-arm attribution at 10% canary weight"))

    print("ramping the canary to 50%")
    await mgmt.adjust_canary(APP, MODEL, weight=0.50)
    await drive_phase(clipper, rng, PHASE_SECONDS)
    print(arm_table(clipper, "Per-arm attribution at 50% canary weight"))

    print("waiting for the canary controller's verdict...")
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and clipper.routing.canaries():
        _, failures = await drive_phase(clipper, rng, 0.1)
        if failures:
            print(f"  {failures} failed predictions")
    controller = mgmt.canary_controller(APP)
    for decision in controller.decisions:
        print(
            f"controller decision: {decision.action} '{decision.canary_key}' "
            f"— {decision.reason}"
        )

    info = mgmt.model_info(APP, MODEL)
    print(
        f"registry: active_version={info['active_version']} "
        f"previous_version={info['previous_version']} "
        + ", ".join(
            f"v{v}={r['state']}" for v, r in sorted(info["versions"].items())
        )
    )
    snapshot = clipper.metrics.snapshot()
    print(
        f"canary counters: checks={snapshot.counters.get('canary.checks', 0)} "
        f"auto_promotions={snapshot.counters.get('canary.auto_promotions', 0)} "
        f"auto_aborts={snapshot.counters.get('canary.auto_aborts', 0)}"
    )
    await mgmt.stop()


if __name__ == "__main__":
    asyncio.run(main())
