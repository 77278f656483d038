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
from repro.core.exceptions import DeploymentError, ManagementError
from repro.core.types import Feedback, Query
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
    return DurableKeyValueStore(str(tmp_path), fsync=False)


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

    def test_a_version_skipped_by_restore_is_refused_by_the_routing_table(self, tmp_path):
        # Version 2 names a factory the restoring process lacks: it stays in
        # the registry but is not deployed.  Mutant: the table swaps in a
        # split naming it, and every later query raises KeyError.
        async def scenario():
            store = make_store(tmp_path)
            mgmt = make_frontend(store)
            clipper = Clipper(make_config())
            clipper.deploy_model(ModelDeployment("m", noop_factory, factory_name="noop"))
            mgmt.register_application(clipper)
            await mgmt.start()
            await mgmt.deploy_model(
                "app", ModelDeployment("m", noop_factory, version=2, factory_name="other")
            )
            await mgmt.stop()

            mgmt, clipper, report = await restore(make_store(tmp_path))
            assert [item.get("version") for item in report.skipped] == [2]
            assert report.routes_restored == 1
            await mgmt.start()
            try:
                before = clipper.routing.describe()
                refusals = [
                    lambda: clipper.routing.start_canary("m", "m:2", weight=0.5),
                    lambda: clipper.routing.activate("m", "m:2"),
                ]
                for refusal in refusals:
                    with pytest.raises(DeploymentError, match="m:2"):
                        refusal()
                    assert clipper.routing.describe() == before
                # The frontend's registry precheck passes (version 2 is
                # recorded and not undeployed); the table refuses.
                with pytest.raises(DeploymentError):
                    await mgmt.start_canary("app", "m", 2, weight=0.5)
                assert mgmt.traffic_split("app", "m") is None
                outputs = []
                for i in range(20):
                    query = Query("app", np.full(4, float(i)), user_id=f"u{i}")
                    outputs.append((await clipper.predict(query)).output)
            finally:
                await mgmt.stop()
            return before, outputs

        before, outputs = run_async(scenario())
        assert before["m"]["stable"] == "m:1" and before["m"]["canary"] is None
        assert outputs == [1] * 20

    def test_a_two_model_selection_state_survives_the_restore(self, tmp_path):
        # The selection state shares the durable store.  Mutant: restoring
        # model `a`'s routing prunes every namespace not reachable yet, so
        # the `a:1|b:1` state goes before `b` is routed again.
        def build(store):
            config = make_config(selection_policy="exp4")
            return make_frontend(store), Clipper(config, state_store=store)

        async def scenario():
            mgmt, clipper = build(make_store(tmp_path))
            for name in ("a", "b"):
                clipper.deploy_model(ModelDeployment(name, noop_factory, factory_name="noop"))
            mgmt.register_application(clipper)
            await mgmt.start()
            await clipper.feedback(Feedback(app_name="app", input=np.zeros(4), label=0))
            learned = clipper.selection_manager.get_state()
            await mgmt.stop()

            mgmt, clipper = build(make_store(tmp_path))
            report = await mgmt.restore_application(clipper, factories=FACTORIES)
            return learned, report, clipper.selection_manager.get_state()

        learned, report, restored = run_async(scenario())
        assert report.complete and report.routes_restored == 2
        assert learned["n_feedback"] == 1
        assert restored == learned

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
            table = build_route_table(mgmt, factories=FACTORIES)
            response = await table.dispatch("GET", "/api/v1/health")
            return response

        response = run_async(scenario())
        assert response.status == 200
        assert response.body["applications"] == ["app"]
        recovery = response.body["recovery"]["app"]
        assert recovery["complete"] is True
        assert recovery["versions_restored"] == 2
        assert recovery["store"]["clean"] is True

    def test_a_restored_application_is_served_by_the_frontend_that_restored_it(
        self, tmp_path
    ):
        """Restore once, serve at once: no second registration anywhere."""
        factories = {"one": lambda: NoOpContainer(output=1), "two": lambda: NoOpContainer(output=2)}

        async def scenario():
            mgmt = make_frontend(make_store(tmp_path))
            mgmt.register_application(Clipper(make_config()))
            for version, factory in ((1, "one"), (2, "two")):
                deployment = ModelDeployment(
                    "m", factories[factory], version=version, factory_name=factory
                )
                await mgmt.deploy_model("app", deployment)
            await mgmt.rollout("app", "m", 2)
            # The store is never closed: a crash.
            mgmt = make_frontend(make_store(tmp_path))
            report = await mgmt.restore_application(Clipper(make_config()), factories)
            table = build_route_table(mgmt, factories)
            await mgmt.start()
            try:
                answers = [
                    await table.dispatch(method, path, body)
                    for method, path, body in (
                        ("POST", "/api/v1/app/predict", {"input": [1.0, 2.0]}),
                        ("GET", "/api/v1/metrics", None),
                        ("GET", "/api/v1/health", None),
                        ("GET", "/api/v1/applications", None),
                    )
                ]
            finally:
                await mgmt.stop()
            return report, answers

        report, (predicted, metrics, health, listed) = run_async(scenario())
        assert report.complete and report.versions_restored == 2
        assert predicted.status == 200
        assert predicted.body["output"] == 2 and predicted.body["models_used"] == ["m:2"]
        assert metrics.body["applications"]["app"]["counters"]["predict.count"] == 1
        assert health.body["applications"] == ["app"]
        assert health.body["recovery"]["app"]["versions_restored"] == 2
        assert [app["app_name"] for app in listed.body["applications"]] == ["app"]

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
            table = build_route_table(mgmt, factories=FACTORIES)
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
