"""Crash-injection tier: kill -9 a serving Clipper, restart on the same WAL.

Opt-in (``pytest --chaos``): these tests spawn subprocesses, deliver
``SIGKILL`` at named fault points, and assert the post-restart invariants
the durability tier promises — routing table and canary state intact,
zero failed predictions after recovery.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import FlakyContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend
from repro.state.durable import DurableKeyValueStore

pytestmark = pytest.mark.chaos

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child_serving.py")
SRC = os.path.abspath(os.path.join(HERE, "..", "..", "src"))


def noop_factory():
    return NoOpContainer(output=1)


FACTORIES = {"noop": noop_factory}


def make_config():
    return ClipperConfig(
        app_name="app", latency_slo_ms=250.0, selection_policy="single"
    )


def spawn(mode, directory):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, CHILD, mode, str(directory)],
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
        env=env,
    )


def read_until(proc, done, timeout=60.0):
    """Collect the child's stdout lines until ``done(lines)`` holds."""
    lines = []

    def pump():
        for raw in proc.stdout:
            lines.append(raw.strip())
            if done(lines):
                return

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    thread.join(timeout)
    assert done(lines), (
        f"child never reached the kill point (exit={proc.poll()}); "
        f"output so far: {lines}"
    )
    return lines


class TestKillNineMidRollout:
    def test_kill9_mid_canary_ramp_restores_routing_and_serves(self, tmp_path):
        """The acceptance scenario: SIGKILL mid-ramp, restart, zero failures."""
        proc = spawn("serve", tmp_path)
        try:
            lines = read_until(
                proc,
                lambda ls: sum(1 for l in ls if l.startswith("WEIGHT")) >= 2,
            )
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        last_weight = float(
            [l for l in lines if l.startswith("WEIGHT")][-1].split()[1]
        )

        async def recover():
            store = DurableKeyValueStore(str(tmp_path), fsync=False)
            mgmt = ManagementFrontend(
                store=store, monitor_health=False, manage_canaries=True
            )
            clipper = Clipper(make_config())
            report = await mgmt.restore_application(clipper, factories=FACTORIES)
            await mgmt.start()
            failed = 0
            outputs = []
            try:
                for i in range(200):
                    try:
                        prediction = await clipper.predict(
                            Query(
                                app_name="app",
                                input=np.zeros(4),
                                user_id=f"user-{i % 64}",
                            )
                        )
                        outputs.append(prediction.output)
                    except Exception:
                        failed += 1
            finally:
                await mgmt.stop()
                store.close()
            return clipper, report, failed, outputs

        clipper, report, failed, outputs = asyncio.run(recover())
        assert report.complete
        assert report.versions_restored == 2
        assert report.routes_restored == 1
        assert report.canaries_resumed == 1
        routing = clipper.routing.describe()["m"]
        assert routing["stable"] == "m:1"
        assert routing["canary"] == "m:2"
        weight = dict((k, w) for k, w in routing["arms"])["m:2"]
        # The child printed WEIGHT only after the registry acknowledged the
        # step, so the WAL holds at least that weight — and at most one
        # further step the kill raced with.
        assert last_weight - 1e-9 <= weight <= min(last_weight + 0.1, 0.9) + 1e-9
        # Zero failed predictions after recovery.
        assert failed == 0
        assert len(outputs) == 200
        assert set(outputs) == {1}

    def test_kill9_at_canary_start_restores_initial_weight(self, tmp_path):
        """SIGKILL right after the canary begins, before any ramp step."""
        proc = spawn("serve", tmp_path)
        try:
            read_until(proc, lambda ls: "CANARY" in ls)
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

        async def recover():
            store = DurableKeyValueStore(str(tmp_path), fsync=False)
            mgmt = ManagementFrontend(
                store=store, monitor_health=False, manage_canaries=False
            )
            clipper = Clipper(make_config())
            report = await mgmt.restore_application(clipper, factories=FACTORIES)
            store.close()
            return clipper, report

        clipper, report = asyncio.run(recover())
        assert report.complete
        routing = clipper.routing.describe()["m"]
        assert routing["canary"] == "m:2"
        weight = dict((k, w) for k, w in routing["arms"])["m:2"]
        # At most the first ramp step (0.1 -> 0.2) raced with the kill.
        assert 0.1 - 1e-9 <= weight <= 0.2 + 1e-9


class TestTornFinalRecord:
    def test_crash_mid_append_drops_only_the_torn_record(self, tmp_path):
        proc = spawn("torn", tmp_path)
        assert proc.wait(timeout=60) == 1  # the child os._exits mid-append
        proc.stdout.close()

        store = DurableKeyValueStore(str(tmp_path), fsync=False)
        assert {k: store.get("ns", k) for k in store.keys("ns")} == {
            f"k{i}": i for i in range(5)
        }
        assert "doomed" not in store.keys("ns")
        assert store.recovery.wal.truncated
        assert not store.recovery.clean
        # The repaired log accepts and persists new records.
        store.put("ns", "after", "ok")
        store.close()
        reopened = DurableKeyValueStore(str(tmp_path), fsync=False)
        assert reopened.get("ns", "after") == "ok"
        assert reopened.recovery.clean
        reopened.close()


class TestFaultyReplicaAfterRecovery:
    def test_flaky_replica_is_absorbed_after_recovery(self, tmp_path):
        """A replica that dies post-restart must not surface failures.

        After recovery one of the two restored replicas is a
        :class:`FlakyContainer` that dies mid-serving; batch retries mask
        the in-flight failures and the health monitor restarts it (the
        factory then yields a healthy instance).
        """
        calls = {"n": 0}

        def fleet_factory():
            calls["n"] += 1
            if calls["n"] == 1:
                return FlakyContainer(healthy_predictions=3, output=1)
            return NoOpContainer(output=1)

        factories = {"fleet": fleet_factory}

        async def lifecycle():
            store = DurableKeyValueStore(str(tmp_path), fsync=False)
            mgmt = ManagementFrontend(
                store=store, monitor_health=False, manage_canaries=False
            )
            clipper = Clipper(make_config())
            clipper.deploy_model(
                ModelDeployment(
                    "m",
                    fleet_factory,
                    factory_name="fleet",
                    num_replicas=2,
                    max_batch_retries=8,
                )
            )
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.stop()
            # kill -9: the durable store gets no clean shutdown.

        async def recover():
            calls["n"] = 0  # fresh process: replica 1 lands on a bad node
            store = DurableKeyValueStore(str(tmp_path), fsync=False)
            mgmt = ManagementFrontend(
                store=store,
                monitor_health=True,
                health_kwargs={
                    "probe_interval_s": 0.02,
                    "failure_threshold": 1,
                    "restart_backoff_s": 0.01,
                },
                manage_canaries=False,
            )
            clipper = Clipper(make_config())
            report = await mgmt.restore_application(clipper, factories=factories)
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

            try:
                # Burst concurrent traffic (so both replicas serve) until the
                # flaky one has died and the monitor has replaced it.
                for round_index in range(200):
                    if restarts.value >= 1:
                        break
                    await asyncio.gather(
                        *(one(round_index * 16 + j) for j in range(16))
                    )
                    await asyncio.sleep(0.02)  # a monitor sweep between bursts
                # Post-restart traffic must be clean too.
                await asyncio.gather(*(one(j) for j in range(32)))
            finally:
                await mgmt.stop()
                store.close()
            return clipper, report, failed, served

        asyncio.run(lifecycle())
        clipper, report, failed, served = asyncio.run(recover())
        assert report.complete
        assert failed == 0
        assert served >= 48  # at least one burst plus the post-restart batch
        assert clipper.metrics.counter("health.restarts").value >= 1
