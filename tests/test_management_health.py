"""Tests for health-driven replica quarantine and recovery."""

import asyncio
import logging

import numpy as np
import pytest

from helpers import run_async, wait_until
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Query
from repro.management.health import HealthMonitor
from repro.core.types import REPLICA_HEALTHY, REPLICA_QUARANTINED
from repro.management.frontend import ManagementFrontend

APP = "health-app"

#: What a sweep logs when its step raises.
SWEEP_FAILURES = ("health sweep failed", "canary evaluation failed")

FAST = dict(
    probe_interval_s=0.01,
    failure_threshold=2,
    probe_timeout_s=0.5,
    restart_backoff_s=0.01,
)


def build_clipper(factory, num_replicas=2, app_name=APP, **config_kwargs):
    clipper = Clipper(
        ClipperConfig(
            app_name=app_name,
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
    """A monitor driven by hand: nothing sweeps it."""
    return HealthMonitor(clipper, **{**FAST, **overrides})


def sweep_tasks():
    """The running sweep tasks and replica recoveries of the current loop."""
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done()
        and task.get_coro().__qualname__ in ("sweep", "HealthMonitor._recover")
    ]


def managed(clipper, **overrides):
    """A frontend whose health sweep runs ``clipper``'s monitor."""
    mgmt = ManagementFrontend(health_kwargs={**FAST, **overrides}, manage_canaries=False)
    mgmt.register_application(clipper)
    return mgmt


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
            assert record.dispatchers[0].recovery is not None
            await monitor.end_recoveries()  # cancels the pending recovery task
            assert record.dispatchers[0].recovery is None
            await clipper.stop()

        run_async(scenario())


class TestSweepsSurviveAndReport:
    @pytest.mark.parametrize(
        "owner_of, step, failure",
        [
            (ManagementFrontend.health_monitor, "probe_once", "health sweep failed"),
            (ManagementFrontend.canary_controller, "evaluate_once", "canary evaluation failed"),
        ],
        ids=["health", "canary"],
    )
    def test_a_raising_step_is_logged_once_per_sweep_and_the_sweep_goes_on(
        self, owner_of, step, failure, caplog, monkeypatch
    ):
        # Once any server in the process configured logging, "repro" stops
        # propagating to the root logger caplog listens on.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        broken = {"on": True}
        raised, ran = [], []

        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory, num_replicas=1)
            mgmt = ManagementFrontend(
                health_kwargs=FAST, canary_kwargs={"check_interval_s": 0.01}
            )
            mgmt.register_application(clipper)
            owner = owner_of(mgmt, APP)
            real_step = getattr(owner, step)

            async def flaky_step():
                if broken["on"]:
                    raised.append(step)
                    raise RuntimeError(f"{step} exploded")
                await real_step()
                ran.append(step)

            # The frontend reads the step when it starts the sweep.
            monkeypatch.setattr(owner, step, flaky_step)
            await mgmt.start()

            def failures():
                return [r for r in caplog.records if r.msg in SWEEP_FAILURES]

            assert await wait_until(lambda: len(failures()) >= 3)
            broken["on"] = False
            # Still running: once the fault clears the same sweep runs the
            # real step again.
            assert await wait_until(lambda: len(ran) >= 2)
            await mgmt.stop()
            return failures()

        records = run_async(scenario())
        assert len(records) == len(raised)
        for record in records:
            assert record.msg == failure
            assert record.levelno == logging.WARNING
            assert record.exc_info[0] is RuntimeError
            assert record.app == APP


class TestSweepLifecycle:
    @pytest.mark.parametrize(
        "owner_of, step",
        [
            (ManagementFrontend.health_monitor, "probe_once"),
            (ManagementFrontend.canary_controller, "evaluate_once"),
        ],
        ids=["health", "canary"],
    )
    def test_stop_returns_when_a_step_swallows_its_cancellation(
        self, owner_of, step, monkeypatch
    ):
        # ``asyncio.wait_for`` before 3.12 drops a cancellation that lands as
        # its future completes, and a health probe awaits one in the RPC
        # client: stop must ask again rather than wait on the sweep for good.
        swallowed = []

        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory, num_replicas=1)
            mgmt = ManagementFrontend(
                health_kwargs=FAST, canary_kwargs={"check_interval_s": 0.01}
            )
            mgmt.register_application(clipper)
            parked = asyncio.Event()

            async def step_that_swallows_one_cancel():
                if swallowed:
                    return
                parked.set()
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    swallowed.append(step)

            monkeypatch.setattr(owner_of(mgmt, APP), step, step_that_swallows_one_cancel)
            await mgmt.start()
            await asyncio.wait_for(parked.wait(), timeout=5)
            await asyncio.wait_for(mgmt.stop(), timeout=5)
            assert swallowed == [step]
            assert sweep_tasks() == []
            assert not clipper.is_started

        run_async(scenario())

    def test_a_failed_start_ends_the_sweeps_of_the_applications_it_stopped(self):
        # A second start after register_application stops the running
        # applications when the new one fails: their sweeps must end with
        # them, or the health sweep would quarantine and rebuild replicas
        # of a stopped application.
        async def scenario():
            running = build_clipper(
                TrackingFactory(lambda: KillableContainer(output=1)), 1, app_name="a"
            )
            mgmt = ManagementFrontend(health_kwargs=FAST)
            mgmt.register_application(running)
            await mgmt.start()
            assert len(sweep_tasks()) == 2  # health and canary of "a"
            failing = build_clipper(
                TrackingFactory(lambda: KillableContainer(output=1)), 1, app_name="b"
            )
            mgmt.register_application(failing)
            real_start = failing.start

            async def refuse():
                raise OSError("no room for b")

            failing.start = refuse
            with pytest.raises(OSError):
                await mgmt.start()
            assert not running.is_started
            assert sweep_tasks() == []
            await asyncio.sleep(20 * FAST["probe_interval_s"])
            assert running.metrics.counter("health.quarantines").value == 0
            assert running.metrics.counter("health.restarts").value == 0
            # Once "b" can start, a start brings both applications' sweeps up.
            failing.start = real_start
            await mgmt.start()
            assert running.is_started and failing.is_started
            assert len(sweep_tasks()) == 4
            await mgmt.stop()
            assert sweep_tasks() == []

        run_async(scenario())


class TestRecovery:
    def test_kill_quarantine_restart_recover(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=7))
            clipper = build_clipper(factory, num_replicas=2)
            mgmt = managed(clipper)
            await mgmt.start()
            monitor = mgmt.health_monitor(APP)

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
            prediction = await clipper.predict(Query(app_name=APP, input=np.zeros(2)))
            assert prediction.output == 7
            await mgmt.stop()

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
            mgmt = managed(clipper, max_backoff_s=0.05)
            await mgmt.start()

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
            prediction = await clipper.predict(Query(app_name=APP, input=np.zeros(2)))
            assert prediction.output == 1
            await mgmt.stop()

        run_async(scenario())

    def test_raising_factory_is_logged_by_replica_name_and_retried(
        self, caplog, monkeypatch
    ):
        # See TestSweepsSurviveAndReport: "repro" may have stopped propagating.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

        async def scenario():
            state = {"raises": False}

            def make_container():
                if state["raises"]:
                    raise RuntimeError("no GPU left")  # user code: any error
                return KillableContainer(output=1)

            factory = TrackingFactory(make_container)
            clipper = build_clipper(factory, num_replicas=1)
            mgmt = managed(clipper, max_backoff_s=0.05)
            await mgmt.start()
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
            await mgmt.stop()

        run_async(scenario())

    def test_traffic_survives_replica_kill_without_failures(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=3))
            clipper = build_clipper(factory, num_replicas=3)
            mgmt = managed(clipper)
            await mgmt.start()

            failures = []
            results = []
            stop_flag = {"stop": False}

            async def load():
                i = 0
                while not stop_flag["stop"]:
                    i += 1
                    try:
                        prediction = await clipper.predict(
                            Query(app_name=APP, input=np.array([float(i)]))
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
            await mgmt.stop()

        run_async(scenario())

    def test_stop_ends_a_recovery_parked_on_its_back_off(self):
        # A recovery runs until something ends it; stopping the frontend does.
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=1))
            clipper = build_clipper(factory, num_replicas=1)
            mgmt = managed(clipper, restart_backoff_s=3600.0)
            await mgmt.start()
            dispatcher = clipper.model_record("m").dispatchers[0]
            factory.instances[0].kill()
            assert await wait_until(lambda: dispatcher.recovery is not None)
            recovery = dispatcher.recovery
            await mgmt.stop()
            assert recovery.cancelled()
            assert dispatcher.recovery is None
            assert len(factory.instances) == 1  # never rebuilt

        run_async(scenario())
