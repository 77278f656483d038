"""What is keyed by a deployed version or by one of its replicas leaves with it.

A version owns its circuit breaker, its queue gauges, its canary-arm handles
and every metric name registered on its behalf; a replica owns its health
record and the task that restarts it.  These tests drive the three ways out
— undeploy, scale-down, a bring-up that fails — and the one way that is *not*
a way out (a sick replica replaced in place), and then look everywhere a key
used to linger: the health API, ``describe()``, the overload snapshot, the
metrics registry, the Prometheus exposition, the event loop's tasks and the
garbage collector.  Only public reads are used, so the same file runs against
the commit before this behaviour existed (where each test of the first two
classes fails).
"""

from __future__ import annotations

import asyncio
import gc
import threading
import types
from functools import partial
from typing import Dict, List

import numpy as np
import pytest

from helpers import run_async, wait_until
from repro.batching.queue import BatchingQueue
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.containers.noop import NoOpContainer
from repro.containers.replica import place_locally
from repro.core.clipper import Clipper
from repro.core.config import CircuitBreakerConfig, ClipperConfig, ModelDeployment
from repro.core.deployed import end_recovery, quarantines_for
from repro.core.exceptions import RpcError
from repro.core.types import Query
from repro.core.types import REPLICA_HEALTHY, REPLICA_QUARANTINED
from repro.management.frontend import ManagementFrontend
from repro.observability.prometheus import render_prometheus
from repro.routing.controller import CanaryController

APP = "teardown-app"
HEALTH = dict(
    probe_interval_s=0.01, failure_threshold=2, probe_timeout_s=0.5,
    restart_backoff_s=0.01, max_backoff_s=0.05,
)


def make_clipper(**kwargs) -> Clipper:
    config = ClipperConfig(
        app_name=APP,
        selection_policy="single",
        latency_slo_ms=500.0,
        breaker=CircuitBreakerConfig(),  # every version gets a breaker
    )
    return Clipper(config, **kwargs)


def managed(clipper: Clipper, **health) -> ManagementFrontend:
    mgmt = ManagementFrontend(
        health_kwargs={**HEALTH, **health}, manage_canaries=False
    )
    mgmt.register_application(clipper)
    return mgmt


def deployment(version: int, factory=NoOpContainer, **kwargs) -> ModelDeployment:
    return ModelDeployment("m", factory, version=version, **kwargs)


def recovery_tasks() -> List[asyncio.Task]:
    """Pending tasks restarting a replica (whoever keeps them, wherever)."""
    return [
        task
        for task in asyncio.all_tasks()
        if not task.done() and task.get_coro().__qualname__.endswith("._recover")
    ]


def traces_of(key: str, mgmt: ManagementFrontend, clipper: Clipper) -> Dict[str, list]:
    """Everything that still names ``key`` (a version, or one of its replicas)."""
    monitor = mgmt.health_monitor(APP)
    described = mgmt.describe(APP)
    overload = clipper.overload.state()
    found = {
        "health": [name for name in monitor.status() if key in name],
        "describe.health": [name for name in described["health"] if key in name],
        "describe.unhealthy": [k for k in described["unhealthy_models"] if key in k],
        "unhealthy_model_keys": [k for k in monitor.unhealthy_model_keys() if key in k],
        "breakers": [k for k in clipper.overload.breakers if key in k],
        "overload.state": [
            k for part in ("breakers", "queues") for k in overload[part] if key in k
        ],
        "metric names": [
            name
            for table in clipper.metrics.all_metrics()
            for name in table
            if key in name
        ],
        "exposition": [
            line
            for line in render_prometheus({APP: clipper.metrics}).splitlines()
            if key in line
        ],
    }
    return {where: what for where, what in found.items() if what}


class TestWhatLeavesTakesItsStateAlong:
    def test_undeploy_leaves_nothing_named_after_the_version(self):
        async def scenario():
            clipper = make_clipper()
            mgmt = managed(clipper)
            await mgmt.deploy_model(APP, deployment(1, num_replicas=2))
            await mgmt.deploy_model(APP, deployment(2))
            await mgmt.start()
            try:
                # A canary with traffic gives both versions arm handles, and a
                # few sweeps give every replica a health record.
                await mgmt.start_canary(APP, "m", 2, weight=0.5)
                for i in range(64):
                    await clipper.predict(
                        Query(app_name=APP, input=np.full(2, float(i)), user_id=f"u{i}")
                    )
                await wait_until(lambda: len(mgmt.replica_health(APP)) == 3)
                assert clipper.routing.arm_metrics("m:1").requests.value > 0
                assert traces_of("m:1", mgmt, clipper)  # the rig sees a live one
                await mgmt.promote(APP, "m")
                await mgmt.undeploy_model(APP, "m:1")
                await asyncio.sleep(0.05)  # a few more sweeps
                assert traces_of("m:1", mgmt, clipper) == {}
                # The version that stayed is all there.
                assert sorted(mgmt.replica_health(APP)) == ["m:2[0]"]
                assert set(clipper.overload.breakers) == {"m:2"}
                assert "model.m:2.batch_size" in clipper.metrics.all_metrics()[2]
            finally:
                await mgmt.stop()

        run_async(scenario())

    def test_scaling_away_a_quarantined_replica_ends_its_quarantine(self):
        async def scenario():
            state = {"stillborn": False}

            def make_container():
                container = KillableContainer(output=1)
                if state["stillborn"]:
                    container.kill()
                return container

            factory = TrackingFactory(make_container)
            clipper = make_clipper()
            mgmt = managed(clipper)
            await mgmt.deploy_model(APP, deployment(2, factory, num_replicas=2))
            await mgmt.start()
            monitor = mgmt.health_monitor(APP)
            try:
                # Replica 1 dies and every replacement is stillborn: it sits
                # in quarantine with a recovery task retrying for good.
                state["stillborn"] = True
                factory.instances[1].kill()
                assert await wait_until(
                    lambda: clipper.metrics.counter("health.restarts").value >= 2
                )
                assert monitor.unhealthy_model_keys() == ["m:2"]
                assert recovery_tasks()
                assert await mgmt.set_num_replicas(APP, "m:2", 1) == 1
                await asyncio.sleep(0.05)
                assert traces_of("m:2[1]", mgmt, clipper) == {}
                assert monitor.unhealthy_model_keys() == []
                assert mgmt.describe(APP)["unhealthy_models"] == []
                assert recovery_tasks() == []
                restarts = clipper.metrics.counter("health.restarts").value
                await asyncio.sleep(0.1)
                assert clipper.metrics.counter("health.restarts").value == restarts
                # The survivor still serves.
                answer = await clipper.predict(Query(app_name=APP, input=np.zeros(2)))
                assert answer.output == 1 and not answer.default_used
            finally:
                await mgmt.stop()

        run_async(scenario())

    def test_a_bring_up_that_fails_leaves_nothing_behind(self):
        async def scenario():
            gate = asyncio.Event()

            def placement(deployment, model_id):
                build = place_locally(deployment, model_id)
                if model_id.version != 2:
                    return build

                async def refuse():
                    await gate.wait()
                    raise RpcError("launch refused")

                def build_refusing(replica_id, avoid):
                    replica = build(replica_id, avoid)
                    replica.start = refuse
                    return replica

                return build_refusing

            clipper = make_clipper(placement=placement)
            # The monitor is driven by hand, and its first restart attempt is
            # far away, so the doomed replica is quarantined with a recovery
            # task parked on its back-off when the bring-up fails.
            mgmt = managed(clipper, probe_interval_s=3600.0, restart_backoff_s=3600.0)
            await mgmt.deploy_model(APP, deployment(1))
            await mgmt.start()
            monitor = mgmt.health_monitor(APP)
            try:
                doomed = asyncio.ensure_future(mgmt.deploy_model(APP, deployment(2)))
                await asyncio.sleep(0.01)  # registered, parked in start()
                assert "m:2" in clipper.overload.breakers
                await monitor.probe_once()
                await monitor.probe_once()
                assert monitor.status()["m:2[0]"].state == REPLICA_QUARANTINED
                assert len(recovery_tasks()) == 1
                gate.set()
                with pytest.raises(RpcError, match="launch refused"):
                    await doomed
                assert traces_of("m:2", mgmt, clipper) == {}
                await asyncio.sleep(0)
                assert recovery_tasks() == []
                assert [str(m) for m in clipper.deployed_models()] == ["m:1"]
            finally:
                await mgmt.stop()

        run_async(scenario())


class TestARedeployedKeyStartsWithAnEmptyCache:
    """An undeployed version's cached answers leave with it: a new version
    under the same key is never served its predecessor's outputs."""

    def test_a_redeployed_version_answers_for_itself(self):
        async def scenario():
            clipper = make_clipper()
            clipper.deploy_model(deployment(1, partial(NoOpContainer, 1)))
            await clipper.start()
            try:
                x = Query(app_name=APP, input=np.zeros(2))
                assert (await clipper.predict(x)).output == 1
                await clipper.deploy_model_async(
                    deployment(2, partial(NoOpContainer, 2)), activate=True
                )
                await clipper.undeploy_model("m:1")
                await clipper.deploy_model_async(
                    deployment(1, partial(NoOpContainer, 3)), activate=True
                )
                again = await clipper.predict(Query(app_name=APP, input=np.zeros(2)))
                assert (again.output, again.from_cache) == (3, False)
                fresh = await clipper.predict(Query(app_name=APP, input=np.ones(2)))
                assert fresh.output == 3
            finally:
                await clipper.stop()

        run_async(scenario())

    def test_an_answer_drained_after_the_undeploy_is_not_cached(self):
        gate = threading.Event()

        class Gated(NoOpContainer):
            def predict_batch(self, inputs):
                gate.wait(5.0)
                return super().predict_batch(inputs)

        async def scenario():
            clipper = make_clipper()
            clipper.deploy_model(deployment(1, partial(Gated, 1)))
            clipper.deploy_model(deployment(2, partial(NoOpContainer, 2)))
            await clipper.start()
            try:
                held = asyncio.ensure_future(
                    clipper.predict(Query(app_name=APP, input=np.zeros(2)))
                )
                await asyncio.sleep(0.05)  # m:1 is evaluating it
                clipper.routing.activate("m", "m:2")
                undeploy = asyncio.ensure_future(clipper.undeploy_model("m:1"))
                await asyncio.sleep(0.05)  # retired, draining
                gate.set()
                assert (await held).output == 1
                await undeploy
                assert len(clipper.cache) == 0
                await clipper.deploy_model_async(
                    deployment(1, partial(NoOpContainer, 3)), activate=True
                )
                again = await clipper.predict(Query(app_name=APP, input=np.zeros(2)))
                assert (again.output, again.from_cache) == (3, False)
            finally:
                gate.set()
                await clipper.stop()

        run_async(scenario())


class TestRolloutCyclesDoNotAccumulate:
    def test_ten_cycles_end_where_a_fresh_instance_starts(self):
        """deploy v+1 -> rollout -> undeploy v, ten times over, against a
        fresh instance that only ever held the last version."""

        def census(mgmt, clipper) -> Dict[str, int]:
            gc.collect()
            counters, _, histograms, gauges = clipper.metrics.all_metrics()
            return {
                "counters": len(counters),
                "histograms": len(histograms),
                "gauges": len(gauges),
                "health records": len(mgmt.replica_health(APP)),
                "breakers": len(clipper.overload.breakers),
                "queues": len(clipper.overload.state()["queues"]),
                "exposition lines": len(
                    render_prometheus({APP: clipper.metrics}).splitlines()
                ),
            }

        def live_queues() -> List[str]:
            gc.collect()
            return sorted(
                o.name for o in gc.get_objects() if isinstance(o, BatchingQueue)
            )

        async def serve(clipper, n=8):
            for i in range(n):
                await clipper.predict(Query(app_name=APP, input=np.full(2, float(i))))

        async def scenario():
            cycled = make_clipper()
            mgmt = managed(cycled)
            await mgmt.deploy_model(APP, deployment(1))
            await mgmt.start()
            try:
                for version in range(2, 12):
                    await mgmt.deploy_model(APP, deployment(version))
                    await serve(cycled)
                    await mgmt.rollout(APP, "m", version)
                    await mgmt.undeploy_model(APP, f"m:{version - 1}")
                await serve(cycled)
                await wait_until(lambda: len(mgmt.replica_health(APP)) == 1)
                after_cycles = census(mgmt, cycled)
                names = [
                    name for table in cycled.metrics.all_metrics() for name in table
                ]
                departed = [f"m:{v}" for v in range(1, 11)]
                assert [
                    name
                    for name in names
                    if any(f"{key}." in name or f'"{key}"' in name for key in departed)
                ] == []
                text = render_prometheus({APP: cycled.metrics})
                assert 'model="m:11"' in text and 'model="m:10"' not in text
                assert list(cycled.overload.state()["queues"]) == ["m:11"]
                assert live_queues() == ["m:11"]
            finally:
                await mgmt.stop()
            del mgmt, cycled

            fresh = make_clipper()
            mgmt = managed(fresh)
            await mgmt.deploy_model(APP, deployment(11))
            await mgmt.start()
            try:
                await serve(fresh)
                await wait_until(lambda: len(mgmt.replica_health(APP)) == 1)
                assert census(mgmt, fresh) == after_cycles
                assert live_queues() == ["m:11"]
            finally:
                await mgmt.stop()

        run_async(scenario())


class TestAReplacedReplicaKeepsItsRecord:
    def test_recovery_keeps_the_history_and_feeds_the_canary_abort(self):
        async def scenario():
            factory = TrackingFactory(lambda: KillableContainer(output=2))
            clipper = make_clipper()
            mgmt = managed(clipper)
            await mgmt.deploy_model(APP, deployment(1))
            await mgmt.deploy_model(APP, deployment(2, factory))
            await mgmt.start()
            monitor = mgmt.health_monitor(APP)
            controller = CanaryController(
                clipper,
                promote=partial(mgmt.promote, APP),
                abort=partial(mgmt.abort_canary, APP),
                min_requests=10**9,
            )
            try:
                await wait_until(lambda: "m:2[0]" in monitor.status())
                record = monitor.status()["m:2[0]"]
                await mgmt.start_canary(APP, "m", 2, weight=0.1)
                await controller.evaluate_once()  # baselines taken: 0 quarantines
                factory.instances[0].kill()
                assert await wait_until(
                    lambda: clipper.metrics.counter("health.recoveries").value >= 1
                )
                # Replaced in place: the same record, with its history.
                assert monitor.status()["m:2[0]"] is record
                assert record.state == REPLICA_HEALTHY
                assert record.quarantines == 1 and record.restarts >= 1
                assert quarantines_for(clipper.model_records(), "m:2") == 1
                assert len(factory.instances) >= 2
                assert recovery_tasks() == []
                # Healthy again, but it *was* quarantined during the rollout.
                (decision,) = await controller.evaluate_once()
                assert decision.action == "abort"
                assert "quarantined during the rollout" in decision.reason
                assert clipper.routing.canary_key("m") is None
            finally:
                await mgmt.stop()

        run_async(scenario())


class TestARecoveryThatMissedItsCancellation:
    def test_end_recovery_asks_until_the_task_has_gone(self):
        """``asyncio.wait_for`` before 3.12 returns its future's result when the
        cancellation lands as the future completes: the recovery task then
        carries on to its next back-off, and whoever waits for it to end
        (scale-down, undeploy, stop) would wait for good."""

        async def scenario():
            async def stubborn():
                try:
                    await asyncio.sleep(10)
                except asyncio.CancelledError:
                    pass  # the swallowed cancellation
                await asyncio.sleep(10)

            task = asyncio.get_running_loop().create_task(stubborn())
            dispatcher = types.SimpleNamespace(recovery=task)
            await asyncio.sleep(0)
            await asyncio.wait_for(end_recovery(dispatcher), timeout=2.0)
            assert task.cancelled() and dispatcher.recovery is None

        run_async(scenario())
