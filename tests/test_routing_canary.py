"""Canary rollouts end to end: routing, attribution, controller, registry.

Covers the acceptance scenarios of the routing issue: a weighted canary
started, adjusted and auto-promoted on healthy metrics under live traffic;
a canary auto-aborted when failures are injected into its replicas (via
``containers/chaos.py``) with zero failed predictions; per-arm metric
attribution; selection-state pruning; and the durable traffic-split records
in the model registry.
"""

import asyncio

import numpy as np
import pytest

from helpers import run_async
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import DeploymentError, RoutingError
from repro.core.types import Feedback, Query
from repro.management import ManagementFrontend
from repro.routing import CanaryController

APP = "canary-app"


def build_clipper(policy="single", **config_kwargs):
    config_kwargs.setdefault("latency_slo_ms", 1000.0)
    return Clipper(
        ClipperConfig(app_name=APP, selection_policy=policy, **config_kwargs)
    )


def deployment(name="m", version=1, output=None, num_replicas=1, factory=None, **kwargs):
    value = version if output is None else output
    if factory is None:
        factory = lambda: NoOpContainer(output=value)  # noqa: E731
    return ModelDeployment(
        name=name,
        container_factory=factory,
        version=version,
        num_replicas=num_replicas,
        **kwargs,
    )


class LoadDriver:
    """Background predict traffic over a rotating user population."""

    def __init__(self, clipper, num_users=50):
        self.clipper = clipper
        self.num_users = num_users
        self.results = []
        self.failures = []
        self._stop = False
        self._task = None

    async def _run(self):
        i = 0
        while not self._stop:
            i += 1
            query = Query(
                app_name=APP,
                input=np.array([float(i)]),
                user_id=f"user-{i % self.num_users}",
            )
            try:
                prediction = await self.clipper.predict(query)
                self.results.append((query.user_id, prediction.output))
            except Exception as exc:
                self.failures.append(exc)
            await asyncio.sleep(0)

    def start(self):
        self._task = asyncio.get_running_loop().create_task(self._run())
        return self._task

    async def stop(self):
        self._stop = True
        await self._task


class TestClipperCanaryVerbs:
    def test_weighted_canary_routes_deterministically_per_user(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            split = clipper.start_canary("m", 2, weight=0.3)

            outputs = {}
            for i in range(200):
                user = f"user-{i % 40}"
                prediction = await clipper.predict(
                    Query(app_name=APP, input=np.array([float(i)]), user_id=user)
                )
                expected_arm = split.arm_for(user)
                assert prediction.output == int(expected_arm.rpartition(":")[2])
                outputs.setdefault(user, set()).add(prediction.output)
            # Each user is pinned to exactly one arm across all their queries.
            assert all(len(seen) == 1 for seen in outputs.values())
            # Both arms took traffic.
            flat = {next(iter(seen)) for seen in outputs.values()}
            assert flat == {1, 2}
            await clipper.stop()

        run_async(scenario())

    def test_per_arm_metrics_attributed_only_during_split(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            for i in range(10):
                await clipper.predict(Query(app_name=APP, input=np.array([float(i)])))
            # Stable serving: no attribution cost, no arm counters.
            assert clipper.metrics.counter("routing.arm.m:1.requests").value == 0

            await clipper.deploy_model_async(deployment(version=2))
            clipper.start_canary("m", 2, weight=0.5)
            for i in range(60):
                await clipper.predict(
                    Query(
                        app_name=APP,
                        input=np.array([float(i + 100)]),
                        user_id=f"user-{i}",
                    )
                )
            stable = clipper.routing.arm_metrics("m:1")
            canary = clipper.routing.arm_metrics("m:2")
            assert stable.requests.value + canary.requests.value == 60
            assert canary.requests.value > 0
            assert stable.requests.value > 0
            assert stable.errors.value == canary.errors.value == 0
            assert canary.latency.count > 0
            assert canary.p99() == canary.p99()  # not NaN
            await clipper.stop()

        run_async(scenario())

    def test_adjust_promote_and_rollback(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            clipper.start_canary("m", 2, weight=0.1)
            split = clipper.adjust_canary("m", weight=0.5)
            assert split.weight_of("m:2") == 0.5
            promoted = clipper.promote("m")
            assert str(promoted) == "m:2"
            assert str(clipper.active_version("m")) == "m:2"
            prediction = await clipper.predict(
                Query(app_name=APP, input=np.array([9.0]))
            )
            assert prediction.output == 2
            # The displaced stable version is the rollback target.
            restored = clipper.rollback("m")
            assert str(restored) == "m:1"
            prediction = await clipper.predict(
                Query(app_name=APP, input=np.array([10.0]))
            )
            assert prediction.output == 1
            await clipper.stop()

        run_async(scenario())

    def test_abort_restores_stable_traffic(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            clipper.start_canary("m", 2, weight=0.9)
            restored = clipper.abort_canary("m")
            assert str(restored) == "m:1"
            assert clipper.routing.canaries() == {}
            for i in range(20):
                prediction = await clipper.predict(
                    Query(app_name=APP, input=np.array([float(i)]), user_id=f"u{i}")
                )
                assert prediction.output == 1
            await clipper.stop()

        run_async(scenario())

    def test_canary_misuse_and_guards(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            with pytest.raises(DeploymentError):
                clipper.start_canary("m", 9, weight=0.5)  # not deployed
            await clipper.deploy_model_async(deployment(version=2))
            with pytest.raises(RoutingError):
                clipper.start_canary("m", 1, weight=0.5)  # canary == stable
            clipper.start_canary("m", 2, weight=0.5)
            with pytest.raises(RoutingError):
                clipper.start_canary("m", 2, weight=0.2)  # already in flight
            await clipper.stop()

        run_async(scenario())

    def test_undeploying_the_canary_arm_aborts_the_rollout(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            clipper.start_canary("m", 2, weight=0.5)
            await clipper.undeploy_model("m:2")
            assert clipper.routing.canaries() == {}
            assert str(clipper.active_version("m")) == "m:1"
            prediction = await clipper.predict(Query(app_name=APP, input=np.zeros(1)))
            assert prediction.output == 1
            await clipper.stop()

        run_async(scenario())

    def test_feedback_follows_the_users_arm(self):
        async def scenario():
            clipper = build_clipper(policy="exp4", cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            split = clipper.start_canary("m", 2, weight=0.5)
            canary_user = next(
                f"u{i}" for i in range(100) if split.arm_for(f"u{i}") == "m:2"
            )
            await clipper.feedback(
                Feedback(app_name=APP, input=np.zeros(1), label=2, user_id=canary_user)
            )
            plan = clipper.routing.plan_for(canary_user)
            assert plan.serving_keys == ["m:2"]
            manager = clipper._selection_manager_for(plan)
            assert manager.get_state(canary_user)["n_feedback"] == 1
            await clipper.stop()

        run_async(scenario())


class TestSelectionStatePruning:
    def test_retired_namespaces_are_pruned_after_successive_rollouts(self):
        async def scenario():
            clipper = build_clipper(policy="exp4")
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.feedback(Feedback(app_name=APP, input=np.zeros(1), label=1))
            ns_v1 = f"selection-state@{APP}@m:1"
            assert clipper.state_store.keys(ns_v1)  # state instantiated

            await clipper.deploy_model_async(deployment(version=2))
            clipper.rollout("m", 2)
            # One step back is reachable: v1's state is retained for rollback.
            assert clipper.state_store.keys(ns_v1)
            await clipper.feedback(Feedback(app_name=APP, input=np.zeros(1), label=1))
            assert clipper.state_store.keys(f"selection-state@{APP}@m:2")

            await clipper.deploy_model_async(deployment(version=3))
            clipper.rollout("m", 3)
            # v1 is now two rollouts old — no routing configuration reaches
            # it, so its namespace is pruned; v2 (the rollback target) stays.
            assert clipper.state_store.keys(ns_v1) == []
            assert clipper.state_store.keys(f"selection-state@{APP}@m:2")
            await clipper.stop()

        run_async(scenario())

    def test_undeploy_prunes_namespaces_referencing_the_version(self):
        async def scenario():
            clipper = build_clipper(policy="exp4")
            clipper.deploy_model(deployment(name="a", version=1))
            clipper.deploy_model(deployment(name="b", version=1))
            await clipper.start()
            await clipper.feedback(Feedback(app_name=APP, input=np.zeros(1), label=1))
            ns = f"selection-state@{APP}@a:1|b:1"
            assert clipper.state_store.keys(ns)
            await clipper.undeploy_model("b")
            assert clipper.state_store.keys(ns) == []
            await clipper.stop()

        run_async(scenario())

    def test_prune_leaves_foreign_namespaces_alone(self):
        async def scenario():
            clipper = build_clipper(policy="exp4")
            clipper.deploy_model(deployment(version=1))
            clipper.state_store.put("selection-state@other:1", "ctx", {"w": 1})
            clipper.state_store.put("unrelated", "key", "value")
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            clipper.rollout("m", 2)
            assert clipper.state_store.get("selection-state@other:1", "ctx") == {"w": 1}
            assert clipper.state_store.get("unrelated", "key") == "value"
            await clipper.stop()

        run_async(scenario())


class TestCanaryControllerJudgement:
    """Controller decisions driven directly through the arm metrics."""

    def make_canary_clipper(self):
        clipper = build_clipper()
        clipper.deploy_model(deployment(version=1))
        clipper.deploy_model(deployment(version=2))  # stages behind v1
        clipper.start_canary("m", 2, weight=0.5)
        return clipper

    def test_auto_promote_after_consecutive_healthy_checks(self):
        async def scenario():
            clipper = self.make_canary_clipper()
            controller = CanaryController(
                clipper, min_requests=10, healthy_checks_to_promote=2
            )
            stable = clipper.routing.arm_metrics("m:1")
            canary = clipper.routing.arm_metrics("m:2")
            assert await controller.evaluate_once() == []  # creates the watch
            for check in range(2):
                for _ in range(20):
                    stable.observe(1.0)
                    canary.observe(1.1)
                decisions = await controller.evaluate_once()
                if check == 0:
                    assert decisions == []
            assert len(decisions) == 1
            assert decisions[0].action == "promote"
            assert str(clipper.active_version("m")) == "m:2"
            assert clipper.metrics.counter("canary.auto_promotions").value == 1

        run_async(scenario())

    def test_auto_abort_on_error_rate_delta(self):
        async def scenario():
            clipper = self.make_canary_clipper()
            controller = CanaryController(clipper, min_requests=10)
            stable = clipper.routing.arm_metrics("m:1")
            canary = clipper.routing.arm_metrics("m:2")
            await controller.evaluate_once()
            for i in range(20):
                stable.observe(1.0)
                canary.observe(1.0, ok=i % 2 == 0)  # 50% errors
            decisions = await controller.evaluate_once()
            assert len(decisions) == 1
            assert decisions[0].action == "abort"
            assert "error rate" in decisions[0].reason
            assert str(clipper.active_version("m")) == "m:1"
            assert clipper.metrics.counter("canary.auto_aborts").value == 1

        run_async(scenario())

    def test_auto_abort_on_p99_regression(self):
        async def scenario():
            clipper = self.make_canary_clipper()
            controller = CanaryController(
                clipper, min_requests=10, p99_ratio_limit=2.0, p99_slack_ms=1.0
            )
            stable = clipper.routing.arm_metrics("m:1")
            canary = clipper.routing.arm_metrics("m:2")
            await controller.evaluate_once()
            for _ in range(20):
                stable.observe(1.0)
                canary.observe(50.0)  # 50 ms vs 1 ms stable
            decisions = await controller.evaluate_once()
            assert len(decisions) == 1
            assert decisions[0].action == "abort"
            assert "p99" in decisions[0].reason
            await asyncio.sleep(0)

        run_async(scenario())

    def test_no_decision_without_enough_traffic(self):
        async def scenario():
            clipper = self.make_canary_clipper()
            controller = CanaryController(clipper, min_requests=100)
            canary = clipper.routing.arm_metrics("m:2")
            await controller.evaluate_once()
            for _ in range(5):
                canary.observe(1.0)
            assert await controller.evaluate_once() == []
            assert clipper.routing.canaries() != {}

        run_async(scenario())


class TestRegistryConsistency:
    def test_undeploying_the_canary_arm_clears_the_durable_split(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            mgmt = ManagementFrontend(monitor_health=False, manage_canaries=False)
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(APP, deployment(version=2))
            await mgmt.start_canary(APP, "m", 2, weight=0.3)
            assert mgmt.traffic_split(APP, "m") is not None

            await mgmt.undeploy_model(APP, "m:2")
            # The live abort and the durable record agree: no split in
            # flight, the canary version is undeployed, v1 keeps serving.
            assert mgmt.traffic_split(APP, "m") is None
            info = mgmt.model_info(APP, "m")
            assert info["versions"]["2"]["state"] == "undeployed"
            assert info["active_version"] == 1
            assert clipper.routing.canaries() == {}
            await mgmt.stop()

        run_async(scenario())

    def test_deploy_with_activate_clears_a_stale_split_record(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            mgmt = ManagementFrontend(monitor_health=False, manage_canaries=False)
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(APP, deployment(version=2))
            await mgmt.start_canary(APP, "m", 2, weight=0.3)
            # Forced activation of a third version discards the canary.
            await mgmt.deploy_model(APP, deployment(version=3), activate=True)
            assert mgmt.traffic_split(APP, "m") is None
            info = mgmt.model_info(APP, "m")
            assert info["active_version"] == 3
            assert info["versions"]["2"]["state"] == "staged"
            assert clipper.routing.canaries() == {}
            await mgmt.stop()

        run_async(scenario())

    def test_aborted_canary_of_the_rollback_target_stays_retired(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            mgmt = ManagementFrontend(monitor_health=False, manage_canaries=False)
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(APP, deployment(version=2))
            await mgmt.rollout(APP, "m", 2)  # v1 retires as rollback target
            assert mgmt.model_info(APP, "m")["versions"]["1"]["state"] == "retired"
            # Canarying the rollback target and aborting must not demote it
            # to staged — previous_version still names it.
            await mgmt.start_canary(APP, "m", 1, weight=0.2)
            await mgmt.abort_canary(APP, "m")
            info = mgmt.model_info(APP, "m")
            assert info["previous_version"] == 1
            assert info["versions"]["1"]["state"] == "retired"
            await mgmt.stop()

        run_async(scenario())

    def test_direct_rollout_clears_a_stale_split_record(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            mgmt = ManagementFrontend(monitor_health=False, manage_canaries=False)
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(APP, deployment(version=2))
            await mgmt.start_canary(APP, "m", 2, weight=0.3)
            await mgmt.rollout(APP, "m", 2)  # instant rollout ends the canary
            assert mgmt.traffic_split(APP, "m") is None
            assert mgmt.model_info(APP, "m")["active_version"] == 2
            await mgmt.stop()

        run_async(scenario())


class TestCanaryIntegration:
    def test_start_adjust_auto_promote_under_live_traffic(self):
        """start → adjust → auto-promote on healthy metrics, zero failures."""

        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            mgmt = ManagementFrontend(
                health_kwargs=dict(probe_interval_s=0.02),
                canary_kwargs=dict(
                    check_interval_s=0.01,
                    min_requests=10,
                    healthy_checks_to_promote=2,
                ),
            )
            mgmt.register_application(clipper)
            await mgmt.start()
            driver = LoadDriver(clipper)
            driver.start()
            await asyncio.sleep(0.05)

            await mgmt.deploy_model(APP, deployment(version=2))
            split = await mgmt.start_canary(APP, "m", 2, weight=0.1)
            assert split.weight_of("m:2") == 0.1
            record = mgmt.traffic_split(APP, "m")
            assert record is not None and record["canary"] == "m:2"
            assert mgmt.model_info(APP, "m")["versions"]["2"]["state"] == "canary"

            await asyncio.sleep(0.05)
            await mgmt.adjust_canary(APP, "m", weight=0.5)

            # The controller promotes once the canary matches the stable arm
            # over enough fresh traffic.
            deadline = asyncio.get_running_loop().time() + 5.0
            while asyncio.get_running_loop().time() < deadline:
                if clipper.routing.canaries() == {}:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            await driver.stop()

            assert driver.failures == []
            assert clipper.metrics.counter("canary.auto_promotions").value == 1
            controller = mgmt.canary_controller(APP)
            assert [d.action for d in controller.decisions] == ["promote"]
            # Traffic fully shifted: the last prediction came from v2.
            assert driver.results[-1][1] == 2
            # The registry recorded the promotion durably.
            info = mgmt.model_info(APP, "m")
            assert info["active_version"] == 2
            assert info["previous_version"] == 1
            assert info["versions"]["2"]["state"] == "serving"
            assert info["versions"]["1"]["state"] == "retired"
            assert mgmt.traffic_split(APP, "m") is None
            await mgmt.stop()

        run_async(scenario())

    def test_injected_failures_auto_abort_with_zero_failed_predictions(self):
        """start → auto-abort when a canary replica is killed mid-rollout."""

        async def scenario():
            factory_v1 = TrackingFactory(lambda: KillableContainer(output=1))
            factory_v2 = TrackingFactory(lambda: KillableContainer(output=2))
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(
                deployment(version=1, factory=factory_v1, max_batch_retries=5)
            )
            mgmt = ManagementFrontend(
                health_kwargs=dict(
                    probe_interval_s=0.01, failure_threshold=2, restart_backoff_s=0.05
                ),
                canary_kwargs=dict(
                    check_interval_s=0.01,
                    min_requests=10_000,  # metrics alone would never decide
                    healthy_checks_to_promote=3,
                ),
            )
            mgmt.register_application(clipper)
            await mgmt.start()
            driver = LoadDriver(clipper)
            driver.start()
            await asyncio.sleep(0.05)

            await mgmt.deploy_model(
                APP,
                deployment(
                    version=2, factory=factory_v2, num_replicas=2, max_batch_retries=5
                ),
            )
            await mgmt.start_canary(APP, "m", 2, weight=0.4)
            await asyncio.sleep(0.05)  # the controller registers its watch

            # Inject failure into one canary replica: its sibling absorbs the
            # re-enqueued batches while the health monitor quarantines it,
            # and the quarantine signal aborts the rollout.
            factory_v2.instances[0].kill()
            deadline = asyncio.get_running_loop().time() + 5.0
            while asyncio.get_running_loop().time() < deadline:
                if clipper.routing.canaries() == {}:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            await driver.stop()

            assert driver.failures == []
            assert clipper.routing.canaries() == {}
            assert clipper.metrics.counter("canary.auto_aborts").value == 1
            controller = mgmt.canary_controller(APP)
            assert [d.action for d in controller.decisions] == ["abort"]
            assert "quarantin" in controller.decisions[0].reason
            # Stable v1 serves everything again; v2 is back to staged.
            assert driver.results[-1][1] == 1
            info = mgmt.model_info(APP, "m")
            assert info["active_version"] == 1
            assert info["versions"]["2"]["state"] == "staged"
            assert mgmt.traffic_split(APP, "m") is None
            await mgmt.stop()

        run_async(scenario())
