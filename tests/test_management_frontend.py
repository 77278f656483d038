"""Tests for the operator-facing management frontend."""

import numpy as np
import pytest

from helpers import run_async
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ManagementError
from repro.core.types import Query
from repro.core.frontend import QueryFrontend
from repro.management.frontend import ManagementFrontend
from repro.management.records import VERSION_SERVING, VERSION_STAGED


def make_app(name, output=1, policy="single"):
    clipper = Clipper(
        ClipperConfig(app_name=name, selection_policy=policy, latency_slo_ms=500.0)
    )
    clipper.deploy_model(
        ModelDeployment(name="noop", container_factory=lambda: NoOpContainer(output=output))
    )
    return clipper


class TestRegistration:
    def test_register_backfills_existing_deployments(self):
        mgmt = ManagementFrontend(monitor_health=False)
        mgmt.register_application(make_app("vision"))
        info = mgmt.model_info("vision", "noop")
        assert info["active_version"] == 1
        assert info["versions"]["1"]["state"] == VERSION_SERVING
        assert mgmt.applications() == ["vision"]
        assert mgmt.registry.applications() == ["vision"]

    def test_duplicate_registration_rejected(self):
        mgmt = ManagementFrontend(monitor_health=False)
        mgmt.register_application(make_app("vision"))
        with pytest.raises(ManagementError):
            mgmt.register_application(make_app("vision"))

    def test_unknown_application_rejected(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            with pytest.raises(ManagementError):
                await mgmt.set_num_replicas("ghost", "noop", 2)

        run_async(scenario())


class TestOperations:
    def test_deploy_rollout_rollback_recorded_in_registry(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            clipper = make_app("vision")
            mgmt.register_application(clipper)
            await mgmt.start()

            model_id = await mgmt.deploy_model(
                "vision",
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=2),
                    version=2,
                ),
            )
            assert str(model_id) == "noop:2"
            info = mgmt.model_info("vision", "noop")
            assert info["versions"]["2"]["state"] == VERSION_STAGED

            await mgmt.rollout("vision", "noop", 2)
            assert mgmt.registry.active_version("vision", "noop") == 2
            assert [str(m) for m in clipper.serving_models()] == ["noop:2"]

            await mgmt.rollback("vision", "noop")
            assert mgmt.registry.active_version("vision", "noop") == 1
            assert [str(m) for m in clipper.serving_models()] == ["noop:1"]
            await mgmt.stop()

        run_async(scenario())

    def test_scale_and_undeploy_recorded_in_registry(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            clipper = make_app("vision")
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(
                "vision",
                ModelDeployment(
                    name="extra", container_factory=lambda: NoOpContainer(output=9)
                ),
            )

            assert await mgmt.set_num_replicas("vision", "extra", 3) == 3
            assert (
                mgmt.model_info("vision", "extra")["versions"]["1"]["num_replicas"] == 3
            )

            await mgmt.undeploy_model("vision", "extra")
            info = mgmt.model_info("vision", "extra")
            assert info["versions"]["1"]["state"] == "undeployed"
            assert info["active_version"] is None
            assert [str(m) for m in clipper.deployed_models()] == ["noop:1"]
            await mgmt.stop()

        run_async(scenario())

    def test_describe_snapshot(self):
        async def scenario():
            mgmt = ManagementFrontend(
                health_kwargs=dict(probe_interval_s=0.01, failure_threshold=2)
            )
            clipper = make_app("vision")
            mgmt.register_application(clipper)
            await mgmt.start()
            monitor = mgmt.health_monitor("vision")
            await monitor.probe_once()
            snapshot = mgmt.describe("vision")
            assert snapshot["started"] is True
            assert snapshot["serving"] == ["noop:1"]
            assert snapshot["replicas"] == {"noop:1": 1}
            assert snapshot["health"] == {"noop:1[0]": "healthy"}
            await mgmt.stop()

        run_async(scenario())


class TestCoexistenceWithQueryFrontend:
    def test_one_registration_serves_both_verb_sets(self):
        async def scenario():
            clipper = make_app("vision", output=7)
            mgmt = ManagementFrontend(monitor_health=False)
            mgmt.register_application(clipper)
            assert isinstance(mgmt, QueryFrontend)

            await mgmt.start()
            prediction = await mgmt.predict("vision", np.zeros(1))
            assert prediction.output == 7

            await mgmt.deploy_model(
                "vision",
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=8),
                    version=2,
                ),
            )
            await mgmt.rollout("vision", "noop", 2)
            prediction = await mgmt.predict("vision", np.ones(1))
            assert prediction.output == 8
            await mgmt.update("vision", np.ones(1), 8)
            assert clipper.metrics.counter("feedback.count").value == 1
            await mgmt.stop()
            assert not clipper.is_started

        run_async(scenario())


class TestConsistencyUnderRefusal:
    def test_registry_rejection_unwinds_live_deploy(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            clipper = make_app("vision")
            mgmt.register_application(clipper)
            await mgmt.start()
            dep = ModelDeployment(
                name="noop", container_factory=lambda: NoOpContainer(output=2), version=2
            )
            await mgmt.deploy_model("vision", dep)
            await mgmt.undeploy_model("vision", "noop:2")
            # Version numbers are immutable: redeploying v2 is refused by the
            # registry, and the live deploy must be unwound, not leaked.
            with pytest.raises(ManagementError):
                await mgmt.deploy_model("vision", dep)
            assert [str(m) for m in clipper.deployed_models()] == ["noop:1"]
            await mgmt.stop()

        run_async(scenario())

    def test_rollout_of_unregistered_version_unwinds_traffic_switch(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            clipper = make_app("vision")
            mgmt.register_application(clipper)
            await mgmt.start()
            # Deploy v2 directly on the clipper, bypassing the frontend.
            await clipper.deploy_model_async(
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=2),
                    version=2,
                )
            )
            with pytest.raises(ManagementError):
                await mgmt.rollout("vision", "noop", 2)
            # Traffic still serves the registered version.
            assert [str(m) for m in clipper.serving_models()] == ["noop:1"]
            await mgmt.stop()

        run_async(scenario())

    def test_undeploy_of_unregistered_version_rejected_before_teardown(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            clipper = make_app("vision")
            mgmt.register_application(clipper)
            await mgmt.start()
            await clipper.deploy_model_async(
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=2),
                    version=2,
                )
            )
            with pytest.raises(ManagementError):
                await mgmt.undeploy_model("vision", "noop:2")
            # The live machinery was not torn down by the refused op.
            assert "noop:2" in [str(m) for m in clipper.deployed_models()]
            await mgmt.stop()

        run_async(scenario())

    def test_register_then_restart_brings_up_late_application(self):
        async def scenario():
            mgmt = ManagementFrontend(monitor_health=False)
            mgmt.register_application(make_app("vision"))
            await mgmt.start()
            late = make_app("speech", output=9)
            mgmt.register_application(late)
            await mgmt.start()  # idempotent; brings up the late registration
            assert late.is_started
            prediction = await late.predict(
                Query(app_name="speech", input=np.zeros(1))
            )
            assert prediction.output == 9
            await mgmt.stop()

        run_async(scenario())
