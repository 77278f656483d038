"""Subprocess child for the chaos tier: a Clipper that expects to die.

Launched by ``tests/chaos/test_crash_recovery.py`` with a mode and a WAL
directory.  The child prints one-line progress markers on stdout so the
parent test knows exactly which named fault point it has reached before
delivering ``SIGKILL`` (or before the child ``os._exit``s itself):

``serve <dir>``
    Open a durable store in ``<dir>``, deploy ``m:1``, register the
    application, deploy ``m:2`` and start a canary, then serve
    predictions forever while ramping the canary weight.  Prints
    ``CANARY`` once the rollout is in flight and ``WEIGHT <w>`` after
    every acknowledged ramp step.  Never exits on its own.

``torn <dir>``
    Commit a handful of records, then install a WAL fault hook that
    half-writes the next frame — the torn-final-record fault point — and
    die with ``os._exit`` so nothing gets a chance to clean up.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
)

import asyncio  # noqa: E402

import numpy as np  # noqa: E402

from repro.containers.noop import NoOpContainer  # noqa: E402
from repro.core.clipper import Clipper  # noqa: E402
from repro.core.config import ClipperConfig, ModelDeployment  # noqa: E402
from repro.core.types import Query  # noqa: E402
from repro.management.frontend import ManagementFrontend  # noqa: E402
from repro.state.durable import DurableKeyValueStore  # noqa: E402

#: Serving pauses this long after each marker.  The parent's SIGKILL follows
#: its read of a marker by a scheduler wake-up, which on a busy two-CPU host
#: can take milliseconds; unpaced ramp steps are ~0.5 ms apart, so without
#: the pause several steps could land between a marker and the kill.
MARKER_PAUSE_S = 0.02


def noop_factory():
    return NoOpContainer(output=1)


async def serve(directory: str) -> None:
    store = DurableKeyValueStore(directory, fsync="never")
    mgmt = ManagementFrontend(
        store=store, monitor_health=False, manage_canaries=False
    )
    clipper = Clipper(
        ClipperConfig(
            app_name="app", latency_slo_ms=250.0, selection_policy="single"
        )
    )
    clipper.deploy_model(ModelDeployment("m", noop_factory, factory_name="noop"))
    mgmt.register_application(clipper)
    await mgmt.start()
    await mgmt.deploy_model(
        "app",
        ModelDeployment(
            "m", noop_factory, version=2, factory_name="noop", num_replicas=2
        ),
    )
    weight = 0.1
    await mgmt.start_canary("app", "m", 2, weight=weight)
    print("CANARY", flush=True)
    await asyncio.sleep(MARKER_PAUSE_S)
    served = 0
    while True:
        served += 1
        await clipper.predict(
            Query(app_name="app", input=np.zeros(4), user_id=f"user-{served % 64}")
        )
        if served % 10 == 0 and weight < 0.89:
            weight = round(weight + 0.1, 2)
            await mgmt.adjust_canary("app", "m", weight)
            # Printed only after the registry acknowledged the new weight,
            # so the parent may assume the WAL holds at least this step.
            print(f"WEIGHT {weight:.2f}", flush=True)
            await asyncio.sleep(MARKER_PAUSE_S)


def torn(directory: str) -> None:
    store = DurableKeyValueStore(directory, fsync="never")
    for i in range(5):
        store.put("ns", f"k{i}", i)
    # The next append writes only the first half of its frame: a torn
    # final record, exactly what a crash mid-write leaves behind.
    store.wal.fault_hook = lambda data: data[: len(data) // 2]
    store.put("ns", "doomed", "half-written")
    print("TORN", flush=True)
    os._exit(1)


def main() -> None:
    mode, directory = sys.argv[1], sys.argv[2]
    if mode == "serve":
        asyncio.run(serve(directory))
    elif mode == "torn":
        torn(directory)
    else:
        raise SystemExit(f"unknown chaos child mode: {mode}")


if __name__ == "__main__":
    main()
