"""Tests for health-driven replica quarantine and recovery."""

import asyncio
import logging

import numpy as np

from helpers import run_async, wait_until
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.health import HealthMonitor
from repro.management import REPLICA_HEALTHY, REPLICA_QUARANTINED


def build_clipper(factory, num_replicas=2, **config_kwargs):
    clipper = Clipper(
        ClipperConfig(
            app_name="health-app",
            selection_policy="single",
            latency_slo_ms=500.0,
            **config_kwargs,
        )
    )
    clipper.deploy_model(
        ModelDeployment(name="m", container_factory=factory, num_replicas=num_replicas)
    )
    return clipper


def fast_monitor(clipper, **overrides):
    kwargs = dict(
        probe_interval_s=0.01,
        failure_threshold=2,
        probe_timeout_s=0.5,
        restart_backoff_s=0.01,
    )
    kwargs.update(overrides)
    return HealthMonitor(clipper, **kwargs)


class TestProbing:
    def test_healthy_replicas_stay_healthy(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory)
            await clipper.start()
            monitor = fast_monitor(clipper)
            await monitor.probe_once()
            await monitor.probe_once()
            statuses = monitor.status()
            assert len(statuses) == 2
            assert all(s.state == REPLICA_HEALTHY for s in statuses.values())
            assert all(s.probes == 2 for s in statuses.values())
            assert clipper.metrics.counter("health.quarantines").value == 0
            await clipper.stop()

        run_async(scenario())

    def test_killed_container_fails_probe(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory, num_replicas=1)
            await clipper.start()
            monitor = fast_monitor(clipper)
            factory.instances[0].kill()
            await monitor.probe_once()
            status = next(iter(monitor.status().values()))
            assert status.consecutive_failures == 1
            assert clipper.metrics.counter("health.probe_failures").value == 1
            await clipper.stop()

        run_async(scenario())

    def test_latency_ceiling_counts_as_failure(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory, num_replicas=1)
            await clipper.start()
            record = clipper.model_record("m")
            replica = record.replicas[0]

            async def slow_check(timeout_s=None):
                await asyncio.sleep(0.02)
                return True

            replica.check_health = slow_check
            monitor = fast_monitor(clipper, latency_ceiling_ms=1.0, failure_threshold=99)
            await monitor.probe_once()
            status = next(iter(monitor.status().values()))
            assert status.failures == 1
            assert status.last_probe_latency_ms > 1.0
            await clipper.stop()

        run_async(scenario())

    def test_dispatcher_failures_are_a_passive_signal(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory)
            await clipper.start()
            monitor = fast_monitor(clipper)
            record = clipper.model_record("m")
            # Pretend the dispatcher watched its replica fail batch after batch.
            record.dispatchers[0].consecutive_failures = 5
            await monitor.probe_once()
            quarantined = monitor.replicas_in_state(REPLICA_QUARANTINED)
            assert len(quarantined) == 1
            await monitor.stop()  # cancels the pending recovery task
            await clipper.stop()

        run_async(scenario())


class TestLoopSurvivesAndReports:
    def test_raising_probe_is_logged_once_per_sweep(self, caplog, monkeypatch):
        # Once any server in the process configured logging, "repro" stops
        # propagating to the root logger caplog listens on.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        sweeps = []

        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory, num_replicas=1)
            await clipper.start()
            monitor = fast_monitor(clipper)
            real_probe = monitor._probe_replica

            async def broken_probe(replica):
                sweeps.append(replica)
                raise RuntimeError("probe exploded")

            monitor._probe_replica = broken_probe
            await monitor.start()

            def failures():
                return [r for r in caplog.records if r.msg == "health sweep failed"]

            assert await wait_until(lambda: len(failures()) >= 3)
            monitor._probe_replica = real_probe
            # Still running: once the fault clears the same loop probes again.
            assert await wait_until(
                lambda: any(s.probes > 0 for s in monitor.status().values())
            )
            await monitor.stop()
            await clipper.stop()
            return failures()

        records = run_async(scenario())
        assert len(records) == len(sweeps)
        for record in records:
            assert record.levelno == logging.WARNING
            assert record.exc_info[0] is RuntimeError
            assert record.app == "health-app"


class TestRecovery:
    def test_kill_quarantine_restart_recover(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=7))
            clipper = build_clipper(factory, num_replicas=2)
            await clipper.start()
            monitor = fast_monitor(clipper)
            await monitor.start()

            victim = factory.instances[0]
            victim.kill()
            recovered = await wait_until(
                lambda: clipper.metrics.counter("health.recoveries").value >= 1
            )
            assert recovered
            statuses = monitor.status()
            assert all(s.state == REPLICA_HEALTHY for s in statuses.values())
            assert clipper.metrics.counter("health.quarantines").value >= 1
            assert clipper.metrics.counter("health.restarts").value >= 1
            # The factory built replacements beyond the initial two replicas.
            assert len(factory.instances) >= 3

            # The restarted replica serves traffic again.
            prediction = await clipper.predict(
                Query(app_name="health-app", input=np.zeros(2))
            )
            assert prediction.output == 7
            await monitor.stop()
            await clipper.stop()

        run_async(scenario())

    def test_persistently_sick_factory_backs_off_until_healthy(self):
        async def scenario():
            state = {"healthy": True}

            def make_container():
                container = KillableContainer(output=1)
                if not state["healthy"]:
                    container.kill()
                return container

            factory = TrackingFactory(make_container)
            clipper = build_clipper(factory, num_replicas=1)
            await clipper.start()
            monitor = fast_monitor(clipper, max_backoff_s=0.05)
            await monitor.start()

            # Kill the replica AND make every replacement stillborn.
            state["healthy"] = False
            factory.instances[0].kill()
            multiple_restarts = await wait_until(
                lambda: clipper.metrics.counter("health.restarts").value >= 2
            )
            assert multiple_restarts
            assert clipper.metrics.counter("health.recoveries").value == 0

            # Heal the factory: the next restart attempt recovers the replica.
            state["healthy"] = True
            recovered = await wait_until(
                lambda: clipper.metrics.counter("health.recoveries").value >= 1
            )
            assert recovered
            prediction = await clipper.predict(
                Query(app_name="health-app", input=np.zeros(2))
            )
            assert prediction.output == 1
            await monitor.stop()
            await clipper.stop()

        run_async(scenario())

    def test_raising_factory_is_logged_by_replica_name_and_retried(
        self, caplog, monkeypatch
    ):
        # See TestLoopSurvivesAndReports: "repro" may have stopped propagating.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

        async def scenario():
            state = {"raises": False}

            def make_container():
                if state["raises"]:
                    raise RuntimeError("no GPU left")  # user code: any error
                return KillableContainer(output=1)

            factory = TrackingFactory(make_container)
            clipper = build_clipper(factory, num_replicas=1)
            await clipper.start()
            monitor = fast_monitor(clipper, max_backoff_s=0.05)
            await monitor.start()
            state["raises"] = True
            factory.instances[0].kill()
            with caplog.at_level(logging.WARNING, logger="repro.management.health"):
                assert await wait_until(
                    lambda: any("rebuild failed" in r.getMessage() for r in caplog.records)
                )
            failed = [r for r in caplog.records if "rebuild failed" in r.getMessage()]
            assert "m:1[0]" in failed[0].getMessage()
            assert failed[0].exc_info[0] is RuntimeError
            assert clipper.metrics.counter("health.restarts").value == 0
            # The recovery task outlived the error: a healed factory recovers.
            state["raises"] = False
            assert await wait_until(
                lambda: clipper.metrics.counter("health.recoveries").value >= 1
            )
            await monitor.stop()
            await clipper.stop()

        run_async(scenario())

    def test_traffic_survives_replica_kill_without_failures(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=3))
            clipper = build_clipper(factory, num_replicas=3)
            await clipper.start()
            monitor = fast_monitor(clipper)
            await monitor.start()

            failures = []
            results = []
            stop_flag = {"stop": False}

            async def load():
                i = 0
                while not stop_flag["stop"]:
                    i += 1
                    try:
                        prediction = await clipper.predict(
                            Query(app_name="health-app", input=np.array([float(i)]))
                        )
                        results.append(prediction.output)
                    except Exception as exc:
                        failures.append(exc)
                    await asyncio.sleep(0.001)

            load_task = asyncio.get_running_loop().create_task(load())
            await asyncio.sleep(0.05)
            factory.instances[1].kill()
            await wait_until(
                lambda: clipper.metrics.counter("health.recoveries").value >= 1
            )
            await asyncio.sleep(0.05)
            stop_flag["stop"] = True
            await load_task

            assert failures == []
            assert results and all(output == 3 for output in results)
            await monitor.stop()
            await clipper.stop()

        run_async(scenario())
