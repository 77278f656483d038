"""Cold-start recovery: registry records back into a live serving instance."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import CorruptingContainer, FlakyContainer, run_async
from repro.api.handlers import build_route_table
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import (
    BatchingConfig,
    CircuitBreakerConfig,
    ClipperConfig,
    ModelDeployment,
)
from repro.core.exceptions import ManagementError
from repro.core.types import Query
from repro.management.frontend import ManagementFrontend
from repro.state.durable import DurableKeyValueStore


def noop_factory():
    return NoOpContainer(output=1)


FACTORIES = {"noop": noop_factory}


def make_config(**kwargs):
    kwargs.setdefault("app_name", "app")
    kwargs.setdefault("latency_slo_ms", 250.0)
    kwargs.setdefault("selection_policy", "single")
    return ClipperConfig(**kwargs)


def make_store(tmp_path):
    return DurableKeyValueStore(str(tmp_path), fsync="never")


def make_frontend(store):
    return ManagementFrontend(
        store=store, monitor_health=False, manage_canaries=False
    )


async def run_lifecycle(store):
    """Deploy two versions, scale, and start a canary; then 'crash'."""
    mgmt = make_frontend(store)
    clipper = Clipper(make_config())
    clipper.deploy_model(
        ModelDeployment("m", noop_factory, factory_name="noop")
    )
    mgmt.register_application(clipper)
    await mgmt.start()
    await mgmt.deploy_model(
        "app",
        ModelDeployment(
            "m",
            noop_factory,
            version=2,
            factory_name="noop",
            num_replicas=2,
            batching=BatchingConfig(policy="fixed", initial_batch_size=4),
            max_batch_retries=5,
        ),
    )
    await mgmt.start_canary("app", "m", 2, weight=0.25)
    await mgmt.stop()
    # No clean shutdown of the store: a durable WAL needs none.


async def restore(store, factories=FACTORIES, config=None):
    mgmt = make_frontend(store)
    clipper = Clipper(config or make_config())
    report = await mgmt.restore_application(clipper, factories=factories)
    return mgmt, clipper, report


class TestRestoreApplication:
    def test_full_restore_of_versions_routing_and_canary(self, tmp_path):
        async def scenario():
            await run_lifecycle(make_store(tmp_path))
            mgmt, clipper, report = await restore(make_store(tmp_path))
            await mgmt.start()
            try:
                prediction = await clipper.predict(
                    Query(app_name="app", input=np.zeros(4))
                )
            finally:
                await mgmt.stop()
            return clipper, report, prediction

        clipper, report, prediction = run_async(scenario())
        assert report.complete
        assert report.versions_restored == 2
        assert report.routes_restored == 1
        assert report.canaries_resumed == 1
        # Routing resumed exactly where the dead process stopped.
        routing = clipper.routing.describe()["m"]
        assert routing["stable"] == "m:1"
        assert routing["canary"] == "m:2"
        assert dict((k, w) for k, w in routing["arms"])["m:2"] == 0.25
        # Replica counts and deploy spec round-tripped.
        records = {str(r.model_id): r for r in clipper.model_records()}
        assert len(records["m:2"].replicas) == 2
        assert records["m:2"].deployment.batching.policy == "fixed"
        assert records["m:2"].deployment.max_batch_retries == 5
        assert prediction.output == 1

    def test_restored_registry_accepts_further_operations(self, tmp_path):
        async def scenario():
            await run_lifecycle(make_store(tmp_path))
            mgmt, clipper, _ = await restore(make_store(tmp_path))
            await mgmt.start()
            try:
                await mgmt.promote("app", "m")
            finally:
                await mgmt.stop()
            return mgmt, clipper

        mgmt, clipper = run_async(scenario())
        assert clipper.routing.describe()["m"]["stable"] == "m:2"
        assert mgmt.traffic_split("app", "m") is None
        assert mgmt.registry.active_version("app", "m") == 2

    def test_missing_factory_is_reported_not_fatal(self, tmp_path):
        async def scenario():
            await run_lifecycle(make_store(tmp_path))
            mgmt, clipper, report = await restore(make_store(tmp_path), factories={})
            return mgmt, clipper, report

        mgmt, clipper, report = run_async(scenario())
        assert not report.complete
        assert report.versions_restored == 0
        assert len(report.skipped) == 3  # two versions + the routing record
        assert all("m" == item["model"] for item in report.skipped)
        # The health surface tells the operator recovery was partial.
        status = mgmt.recovery_status()["app"]
        assert status["complete"] is False
        assert mgmt.describe("app")["recovery"]["complete"] is False

    def test_undeployed_versions_stay_dead(self, tmp_path):
        async def scenario():
            store = make_store(tmp_path)
            mgmt = make_frontend(store)
            clipper = Clipper(make_config())
            clipper.deploy_model(
                ModelDeployment("m", noop_factory, factory_name="noop")
            )
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(
                "app",
                ModelDeployment("m", noop_factory, version=2, factory_name="noop"),
            )
            await mgmt.undeploy_model("app", "m:2")
            await mgmt.stop()
            return await restore(make_store(tmp_path))

        _, clipper, report = run_async(scenario())
        assert report.complete
        assert [str(m) for m in clipper.deployed_models()] == ["m:1"]

    def test_restore_requires_registered_app_and_fresh_instance(self, tmp_path):
        async def unknown_app():
            store = make_store(tmp_path / "a")
            with pytest.raises(ManagementError):
                await make_frontend(store).restore_application(
                    Clipper(make_config()), factories=FACTORIES
                )

        async def stale_instance():
            store = make_store(tmp_path / "b")
            await run_lifecycle(store)
            dirty = Clipper(make_config())
            dirty.deploy_model(ModelDeployment("m", noop_factory))
            with pytest.raises(ManagementError):
                await make_frontend(store).restore_application(
                    dirty, factories=FACTORIES
                )

        run_async(unknown_app())
        run_async(stale_instance())

    def test_canary_controller_resumes_restored_canary(self, tmp_path):
        async def scenario():
            await run_lifecycle(make_store(tmp_path))
            store = make_store(tmp_path)
            mgmt = ManagementFrontend(
                store=store, monitor_health=False, manage_canaries=True
            )
            clipper = Clipper(make_config())
            await mgmt.restore_application(clipper, factories=FACTORIES)
            controller = mgmt.canary_controller("app")
            await controller.evaluate_once()
            return controller

        controller = run_async(scenario())
        # The controller began a watch for the restored split without any
        # operator involvement — the resume is automatic.
        assert "m" in controller._watches

    def test_health_api_reports_recovery(self, tmp_path):
        async def scenario():
            await run_lifecycle(make_store(tmp_path))
            mgmt, _, _ = await restore(make_store(tmp_path))
            table = build_route_table(admin=mgmt, factories=FACTORIES)
            response = await table.dispatch("GET", "/api/v1/health")
            return response

        response = run_async(scenario())
        assert response.status == 200
        recovery = response.body["recovery"]["app"]
        assert recovery["complete"] is True
        assert recovery["versions_restored"] == 2
        assert recovery["store"]["clean"] is True

    def test_rest_deploy_spec_round_trips(self, tmp_path):
        """A version deployed over REST restores via the same factory name."""

        async def scenario():
            store = make_store(tmp_path)
            mgmt = make_frontend(store)
            clipper = Clipper(make_config())
            clipper.deploy_model(
                ModelDeployment("noop", noop_factory, factory_name="noop")
            )
            mgmt.register_application(clipper)
            await mgmt.start()
            table = build_route_table(admin=mgmt, factories=FACTORIES)
            response = await table.dispatch(
                "POST",
                "/api/v1/admin/app/deploy",
                {"model_name": "noop", "factory": "noop", "version": 2,
                 "num_replicas": 2},
            )
            assert response.status == 200
            await mgmt.stop()
            return await restore(make_store(tmp_path))

        _, clipper, report = run_async(scenario())
        assert report.complete
        records = {str(r.model_id): r for r in clipper.model_records()}
        assert set(records) == {"noop:1", "noop:2"}
        assert records["noop:2"].deployment.factory_name == "noop"
        assert len(records["noop:2"].replicas) == 2

    def test_restored_version_keeps_queue_bound_and_breaker(self, tmp_path):
        """Every deployment field survives a cold start, not a hand-kept list."""

        async def scenario():
            mgmt = make_frontend(make_store(tmp_path))
            clipper = Clipper(make_config())
            mgmt.register_application(clipper)
            await mgmt.deploy_model(
                "app",
                ModelDeployment(
                    "m",
                    noop_factory,
                    factory_name="noop",
                    batching=BatchingConfig(max_queue_depth=64),
                    circuit_breaker=CircuitBreakerConfig(window=7),
                ),
            )
            return await restore(make_store(tmp_path))

        _, clipper, report = run_async(scenario())
        assert report.complete
        record = clipper.model_record("m:1")
        assert record.deployment.batching.max_queue_depth == 64
        assert record.queue.maxsize == 64
        assert record.deployment.circuit_breaker == CircuitBreakerConfig(window=7)
        assert "m:1" in clipper.overload.breakers


class TestDeploySpecHelpers:
    def test_spec_round_trip_preserves_deployment_shape(self):
        deployment = ModelDeployment(
            "m",
            noop_factory,
            num_replicas=3,
            version=7,
            serialize_rpc=False,
            max_batch_retries=1,
            factory_name="noop",
            batching=BatchingConfig(policy="quantile", quantile=0.95),
        )
        rebuilt = ModelDeployment.from_spec(deployment.to_spec(), FACTORIES)
        assert rebuilt.version == 7
        assert rebuilt.num_replicas == 3
        assert rebuilt.serialize_rpc is False
        assert rebuilt.max_batch_retries == 1
        assert rebuilt.factory_name == "noop"
        assert rebuilt.batching.policy == "quantile"
        assert rebuilt.batching.quantile == 0.95
        assert rebuilt.container_factory is noop_factory

    def test_missing_factory_raises(self):
        spec = ModelDeployment("ghost", noop_factory).to_spec()
        with pytest.raises(ManagementError):
            ModelDeployment.from_spec(spec, {})

    def test_bare_model_name_fallback(self):
        """A deploy that never named its factory resolves by bare model name."""
        spec = ModelDeployment("noop", lambda: None, num_replicas=2).to_spec()
        assert spec["factory_name"] is None
        rebuilt = ModelDeployment.from_spec(spec, FACTORIES)
        assert rebuilt.container_factory is noop_factory
        assert rebuilt.num_replicas == 2


class TestFaultPointContainers:
    def test_flaky_container_dies_after_budget(self):
        container = FlakyContainer(healthy_predictions=3, output=5)
        assert container.predict_batch([1, 2]) == [5, 5]
        assert container.healthy()
        assert container.predict_batch([3]) == [5]
        assert not container.healthy()
        with pytest.raises(RuntimeError):
            container.predict_batch([4])

    def test_corrupting_container_garbage_mode(self):
        container = CorruptingContainer(
            output=1, corrupt_output=-1, healthy_predictions=2
        )
        assert container.predict_batch([1, 2]) == [1, 1]
        assert container.predict_batch([3, 4]) == [-1, -1]
        assert container.healthy()  # probes cannot tell
        assert container.corrupted_batches == 1

    def test_corrupting_container_short_mode(self):
        container = CorruptingContainer(output=1, mode="short")
        assert len(container.predict_batch([1, 2, 3])) == 2

    def test_short_batch_surfaces_as_failure_not_misalignment(self):
        """The replica layer must reject a short batch outright."""

        async def scenario():
            clipper = Clipper(make_config(app_name="sick", straggler_mitigation=False))
            clipper.deploy_model(
                ModelDeployment(
                    "bad",
                    lambda: CorruptingContainer(output=1, mode="short"),
                    max_batch_retries=0,
                )
            )
            await clipper.start()
            try:
                with pytest.raises(Exception):
                    await clipper.predict(
                        Query(app_name="sick", input=np.zeros(4), latency_slo_ms=200.0)
                    )
            finally:
                await clipper.stop()

        run_async(scenario())
