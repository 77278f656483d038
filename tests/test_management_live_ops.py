"""Live lifecycle operations on a running Clipper, under concurrent traffic.

Covers the concurrency seams called out by the management-plane issue:
replica scaling and version rollout while predictions are in flight (no
lost or duplicated pending queries, clean drains on scale-down), plus the
full acceptance scenario — deploy a second version, roll out, scale 1→3→1,
kill a replica and watch health-driven recovery, roll back — with zero
failed predictions attributable to the management operations.
"""

import asyncio

import numpy as np
import pytest

from helpers import run_async
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import DeploymentError
from repro.core.types import Feedback, Query
from repro.management import ManagementFrontend


def build_clipper(policy="single", **config_kwargs):
    config_kwargs.setdefault("latency_slo_ms", 1000.0)
    return Clipper(
        ClipperConfig(app_name="live-app", selection_policy=policy, **config_kwargs)
    )


def deployment(name="m", version=1, output=None, num_replicas=1, **kwargs):
    value = version if output is None else output
    return ModelDeployment(
        name=name,
        container_factory=lambda: NoOpContainer(output=value),
        version=version,
        num_replicas=num_replicas,
        **kwargs,
    )


class LoadDriver:
    """Sustained background predict traffic collecting results and failures."""

    def __init__(self, clipper, app_name="live-app"):
        self.clipper = clipper
        self.app_name = app_name
        self.results = []
        self.failures = []
        self._stop = False
        self._task = None

    async def _run(self):
        i = 0
        while not self._stop:
            i += 1
            query = Query(app_name=self.app_name, input=np.array([float(i)]))
            try:
                prediction = await self.clipper.predict(query)
                self.results.append((query.query_id, prediction.output))
            except Exception as exc:
                self.failures.append(exc)
            await asyncio.sleep(0)

    def start(self):
        self._task = asyncio.get_running_loop().create_task(self._run())
        return self._task

    async def stop(self):
        self._stop = True
        await self._task


class TestLiveDeployUndeploy:
    def test_deploy_async_on_running_instance_serves(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment(name="a", output=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(name="b", output=2))
            assert sorted(str(m) for m in clipper.serving_models()) == ["a:1", "b:1"]
            prediction = await clipper.predict(
                Query(app_name="live-app", input=np.zeros(1))
            )
            assert prediction.output in (1, 2)
            await clipper.stop()

        run_async(scenario())

    def test_staged_version_does_not_serve_until_rollout(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            await clipper.deploy_model_async(deployment(version=2))
            assert [str(m) for m in clipper.serving_models()] == ["m:1"]
            for i in range(5):
                prediction = await clipper.predict(
                    Query(app_name="live-app", input=np.array([float(i)]))
                )
                assert prediction.output == 1
            clipper.rollout("m", 2)
            prediction = await clipper.predict(
                Query(app_name="live-app", input=np.array([99.0]))
            )
            assert prediction.output == 2
            await clipper.stop()

        run_async(scenario())

    def test_undeploy_drains_pending_queries(self):
        async def scenario():
            clipper = build_clipper(policy="exp4")
            clipper.deploy_model(deployment(name="a", output=1))
            clipper.deploy_model(deployment(name="b", output=1))
            await clipper.start()
            # Queue work against both models, then undeploy one immediately:
            # queries already submitted to its queue must still complete.
            queries = [
                clipper.predict(Query(app_name="live-app", input=np.array([float(i)])))
                for i in range(32)
            ]
            gather = asyncio.gather(*queries)
            undeployed = await clipper.undeploy_model("b")
            assert str(undeployed) == "b:1"
            predictions = await gather
            assert all(p.output == 1 for p in predictions)
            assert [str(m) for m in clipper.serving_models()] == ["a:1"]
            await clipper.stop()

        run_async(scenario())

    def test_cannot_undeploy_last_serving_model(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment())
            await clipper.start()
            with pytest.raises(DeploymentError):
                await clipper.undeploy_model("m")
            await clipper.stop()

        run_async(scenario())


class TestLiveScaling:
    def test_scale_up_and_down_under_sustained_traffic(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment(output=5))
            await clipper.start()
            driver = LoadDriver(clipper)
            driver.start()
            await asyncio.sleep(0.05)

            assert await clipper.set_num_replicas("m", 3) == 3
            record = clipper.model_record("m")
            assert len(record.replicas) == 3
            assert len(record.dispatchers) == 3
            await asyncio.sleep(0.05)

            assert await clipper.set_num_replicas("m", 1) == 1
            assert len(record.replicas) == 1
            assert len(record.dispatchers) == 1
            await asyncio.sleep(0.05)
            await driver.stop()

            # No failures, no lost queries, and exactly one result per query
            # (futures resolved once each: no duplicated pending entries).
            assert driver.failures == []
            assert len(driver.results) > 0
            query_ids = [qid for qid, _ in driver.results]
            assert len(query_ids) == len(set(query_ids))
            assert all(output == 5 for _, output in driver.results)
            # The queue drained on scale-down.
            assert record.queue.qsize() == 0
            await clipper.stop()

        run_async(scenario())

    def test_scale_down_requires_at_least_one_replica(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment())
            await clipper.start()
            with pytest.raises(DeploymentError):
                await clipper.set_num_replicas("m", 0)
            await clipper.stop()

        run_async(scenario())

    def test_new_replicas_get_monotonic_ids(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment())
            await clipper.start()
            await clipper.set_num_replicas("m", 3)
            await clipper.set_num_replicas("m", 1)
            await clipper.set_num_replicas("m", 2)
            record = clipper.model_record("m")
            ids = [replica.replica_id for replica in record.replicas]
            assert ids == sorted(ids)
            assert len(set(ids)) == len(ids)
            await clipper.stop()

        run_async(scenario())


class TestRolloutRollback:
    def test_rollout_under_sustained_traffic_switches_cleanly(self):
        async def scenario():
            clipper = build_clipper(cache_size=0)
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            driver = LoadDriver(clipper)
            driver.start()
            await asyncio.sleep(0.05)

            await clipper.deploy_model_async(deployment(version=2))
            clipper.rollout("m", 2)
            await asyncio.sleep(0.05)
            clipper.rollback("m")
            await asyncio.sleep(0.05)
            await driver.stop()

            assert driver.failures == []
            outputs = [output for _, output in driver.results]
            # Every prediction came from exactly one of the two versions, the
            # switch happened (both versions observed), and after rollback
            # traffic returned to v1.
            assert set(outputs) <= {1, 2}
            assert 2 in outputs
            assert outputs[-1] == 1
            query_ids = [qid for qid, _ in driver.results]
            assert len(query_ids) == len(set(query_ids))
            await clipper.stop()

        run_async(scenario())

    def test_rollback_without_previous_version_rejected(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            with pytest.raises(DeploymentError):
                clipper.rollback("m")
            await clipper.stop()

        run_async(scenario())

    def test_rollout_of_missing_version_rejected(self):
        async def scenario():
            clipper = build_clipper()
            clipper.deploy_model(deployment(version=1))
            await clipper.start()
            with pytest.raises(DeploymentError):
                clipper.rollout("m", 9)
            await clipper.stop()

        run_async(scenario())

    def test_selection_state_is_retained_across_rollback(self):
        async def scenario():
            clipper = build_clipper(policy="exp4")
            clipper.deploy_model(deployment(name="good", output=1))
            clipper.deploy_model(deployment(name="bad", output=0))
            await clipper.start()
            for i in range(25):
                x = np.array([float(i)])
                await clipper.feedback(Feedback(app_name="live-app", input=x, label=1))
            trained = clipper.selection_manager.get_state(None)
            assert trained["weights"]["good:1"] > trained["weights"]["bad:1"]

            # Roll "good" to v2: the new serving set starts fresh state...
            await clipper.deploy_model_async(deployment(name="good", version=2, output=1))
            clipper.rollout("good", 2)
            fresh = clipper.selection_manager.get_state(None)
            assert fresh["weights"]["good:2"] == fresh["weights"]["bad:1"]

            # ...and rollback recovers the state learned for v1 untouched.
            clipper.rollback("good")
            restored = clipper.selection_manager.get_state(None)
            assert restored["weights"] == trained["weights"]
            await clipper.stop()

        run_async(scenario())


class TestAcceptanceScenario:
    def test_full_management_lifecycle_under_load(self):
        """Deploy v2, rollout, scale 1→3→1, kill+recover a replica, rollback —
        with zero failed predictions under continuous concurrent load."""

        async def scenario():
            factory_v1 = TrackingFactory(lambda: KillableContainer(output=1))
            factory_v2 = TrackingFactory(lambda: KillableContainer(output=2))
            clipper = build_clipper()
            clipper.deploy_model(
                ModelDeployment(
                    name="m", container_factory=factory_v1, version=1, max_batch_retries=5
                )
            )
            mgmt = ManagementFrontend(
                health_kwargs=dict(
                    probe_interval_s=0.01, failure_threshold=2, restart_backoff_s=0.01
                )
            )
            mgmt.register_application(clipper)
            await mgmt.start()

            driver = LoadDriver(clipper)
            driver.start()
            await asyncio.sleep(0.05)

            # Deploy a second version (staged) and roll it out.
            await mgmt.deploy_model(
                "live-app",
                ModelDeployment(
                    name="m", container_factory=factory_v2, version=2, max_batch_retries=5
                ),
            )
            await mgmt.rollout("live-app", "m", 2)
            await asyncio.sleep(0.05)

            # Scale the serving version 1 → 3.
            assert await mgmt.set_num_replicas("live-app", "m:2", 3) == 3
            await asyncio.sleep(0.05)

            # Kill one serving replica; health-driven recovery restarts it.
            record = clipper.model_record("m:2")
            record.replicas[0].container.kill()
            deadline = asyncio.get_running_loop().time() + 5.0
            while asyncio.get_running_loop().time() < deadline:
                if clipper.metrics.counter("health.recoveries").value >= 1:
                    break
                await asyncio.sleep(0.01)
            assert clipper.metrics.counter("health.recoveries").value >= 1
            await asyncio.sleep(0.05)

            # Scale back 3 → 1, then roll back to v1.
            assert await mgmt.set_num_replicas("live-app", "m:2", 1) == 1
            await asyncio.sleep(0.05)
            await mgmt.rollback("live-app", "m")
            await asyncio.sleep(0.05)
            await driver.stop()

            # Zero failed predictions attributable to the management ops.
            assert driver.failures == []
            assert len(driver.results) > 50
            query_ids = [qid for qid, _ in driver.results]
            assert len(query_ids) == len(set(query_ids))
            outputs = [output for _, output in driver.results]
            assert set(outputs) <= {1, 2}
            assert 2 in outputs  # the rollout took traffic
            assert outputs[-1] == 1  # the rollback restored v1

            # The registry recorded the whole story.
            info = mgmt.model_info("live-app", "m")
            assert info["active_version"] == 1
            assert info["previous_version"] == 2
            assert info["versions"]["1"]["state"] == "serving"
            assert info["versions"]["2"]["state"] == "retired"
            assert info["versions"]["2"]["num_replicas"] == 1
            assert clipper.metrics.counter("health.quarantines").value >= 1
            await mgmt.stop()

        run_async(scenario())
