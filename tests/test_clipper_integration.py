"""Integration tests for the full Clipper serving engine."""

import asyncio
import time

import numpy as np
import pytest

from helpers import SimulatedLatencyContainer, run_async, wait_until
from repro.containers.adapters import ClassifierContainer
from repro.containers.noop import NoOpContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.exceptions import ClipperError, DeploymentError, PredictionTimeoutError
from repro.core.types import Feedback, Query


def build_clipper(containers, policy="exp4", slo_ms=100.0, cache_size=1024, **config_kwargs):
    clipper = Clipper(
        ClipperConfig(
            app_name="test-app",
            latency_slo_ms=slo_ms,
            selection_policy=policy,
            cache_size=cache_size,
            **config_kwargs,
        )
    )
    for name, factory in containers.items():
        clipper.deploy_model(ModelDeployment(name=name, container_factory=factory))
    return clipper


class TestDeployment:
    def test_deploy_returns_model_ids(self):
        clipper = Clipper(ClipperConfig())
        model_id = clipper.deploy_model(
            ModelDeployment(name="noop", container_factory=NoOpContainer)
        )
        assert str(model_id) == "noop:1"
        assert clipper.deployed_models() == [model_id]

    def test_duplicate_deployment_rejected(self):
        clipper = Clipper(ClipperConfig())
        clipper.deploy_model(ModelDeployment(name="noop", container_factory=NoOpContainer))
        with pytest.raises(DeploymentError):
            clipper.deploy_model(ModelDeployment(name="noop", container_factory=NoOpContainer))

    def test_start_without_models_rejected(self):
        async def scenario():
            clipper = Clipper(ClipperConfig())
            with pytest.raises(ClipperError):
                await clipper.start()

        run_async(scenario())

    def test_deploy_on_a_started_instance_is_brought_up_on_the_serving_loop(self):
        async def scenario():
            clipper = build_clipper({"a": lambda: NoOpContainer(output=1)}, policy="single")
            await clipper.start()
            clipper.deploy_model(
                ModelDeployment(name="b", container_factory=lambda: NoOpContainer(output=2)),
            )
            record = clipper.model_record("b")
            assert await wait_until(lambda: all(r.started for r in record.replicas))
            return clipper

        clipper = run_async(scenario())
        # The serving loop is gone; the instance still reads as started.  A
        # deploy from outside any loop is refused before it registers anything.
        with pytest.raises(RuntimeError):
            clipper.deploy_model(ModelDeployment(name="c", container_factory=NoOpContainer))
        assert [str(m) for m in clipper.deployed_models()] == ["a:1", "b:1"]

    def test_predict_before_start_rejected(self):
        async def scenario():
            clipper = Clipper(ClipperConfig())
            clipper.deploy_model(ModelDeployment(name="noop", container_factory=NoOpContainer))
            with pytest.raises(ClipperError):
                await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))

        run_async(scenario())


class TestPredictionPath:
    def test_end_to_end_accuracy_with_real_models(self, trained_svm, trained_logreg, mnist_like_small):
        ds = mnist_like_small

        async def scenario():
            clipper = build_clipper(
                {
                    "svm": lambda: ClassifierContainer(trained_svm),
                    "logreg": lambda: ClassifierContainer(trained_logreg),
                }
            )
            await clipper.start()
            correct = 0
            n = 40
            for i in range(n):
                prediction = await clipper.predict(
                    Query(app_name="test-app", input=ds.X_test[i])
                )
                correct += int(prediction.output == ds.y_test[i])
                assert 0.0 <= prediction.confidence <= 1.0
                assert prediction.latency_ms > 0
            await clipper.stop()
            return correct / n

        accuracy = run_async(scenario())
        assert accuracy > 0.9

    def test_single_policy_uses_one_model(self):
        async def scenario():
            clipper = build_clipper(
                {"a": lambda: NoOpContainer(output=1), "b": lambda: NoOpContainer(output=2)},
                policy="single",
            )
            await clipper.start()
            prediction = await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))
            await clipper.stop()
            assert prediction.output == 1
            assert len(prediction.models_used) == 1

        run_async(scenario())

    def test_exp4_policy_queries_all_models(self):
        async def scenario():
            clipper = build_clipper(
                {"a": lambda: NoOpContainer(output=1), "b": lambda: NoOpContainer(output=1)},
                policy="exp4",
            )
            await clipper.start()
            prediction = await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))
            await clipper.stop()
            assert sorted(prediction.models_used) == ["a:1", "b:1"]
            assert prediction.confidence == 1.0

        run_async(scenario())

    def test_concurrent_queries(self):
        async def scenario():
            clipper = build_clipper({"noop": lambda: NoOpContainer(output=5)}, policy="single")
            await clipper.start()
            queries = [Query(app_name="test-app", input=np.array([float(i)])) for i in range(64)]
            predictions = await asyncio.gather(*[clipper.predict(q) for q in queries])
            await clipper.stop()
            assert all(p.output == 5 for p in predictions)

        run_async(scenario())

    def test_batching_actually_groups_queries(self):
        async def scenario():
            clipper = build_clipper(
                {"noop": lambda: NoOpContainer(output=0)},
                policy="single",
                cache_size=0,
            )
            await clipper.start()
            queries = [Query(app_name="test-app", input=np.array([float(i)])) for i in range(128)]
            await asyncio.gather(*[clipper.predict(q) for q in queries])
            await clipper.stop()
            sizes = clipper.metrics.histogram("model.noop:1.batch_size").values()
            assert max(sizes) > 1

        run_async(scenario())


class TestCachingBehaviour:
    def test_repeated_query_hits_cache(self):
        async def scenario():
            clipper = build_clipper({"noop": lambda: NoOpContainer(output=9)}, policy="single")
            await clipper.start()
            x = np.ones(4)
            first = await clipper.predict(Query(app_name="test-app", input=x))
            second = await clipper.predict(Query(app_name="test-app", input=x))
            await clipper.stop()
            assert not first.from_cache
            assert second.from_cache
            assert clipper.cache.stats.hits >= 1

        run_async(scenario())

    def test_cache_disabled_never_hits(self):
        async def scenario():
            clipper = build_clipper(
                {"noop": lambda: NoOpContainer(output=9)}, policy="single", cache_size=0
            )
            await clipper.start()
            x = np.ones(4)
            await clipper.predict(Query(app_name="test-app", input=x))
            second = await clipper.predict(Query(app_name="test-app", input=x))
            await clipper.stop()
            assert not second.from_cache
            assert clipper.cache.stats.hits == 0

        run_async(scenario())


class TestFeedbackPath:
    def test_feedback_updates_selection_weights(self):
        async def scenario():
            clipper = build_clipper(
                {
                    "always-right": lambda: NoOpContainer(output=1),
                    "always-wrong": lambda: NoOpContainer(output=0),
                },
                policy="exp4",
            )
            await clipper.start()
            for i in range(30):
                x = np.array([float(i)])
                await clipper.predict(Query(app_name="test-app", input=x))
                await clipper.feedback(Feedback(app_name="test-app", input=x, label=1))
            await clipper.stop()
            state = clipper.selection_manager.get_state(None)
            assert state["weights"]["always-right:1"] > state["weights"]["always-wrong:1"]

        run_async(scenario())

    def test_feedback_joins_against_cache_without_reevaluation(self):
        async def scenario():
            clipper = build_clipper({"noop": lambda: NoOpContainer(output=1)}, policy="exp4")
            await clipper.start()
            x = np.ones(3)
            await clipper.predict(Query(app_name="test-app", input=x))
            misses_before = clipper.cache.stats.misses
            await clipper.feedback(Feedback(app_name="test-app", input=x, label=1))
            await clipper.stop()
            # The feedback lookup hit the cache: no additional misses.
            assert clipper.cache.stats.misses == misses_before

        run_async(scenario())

    def test_per_user_contextual_state(self):
        async def scenario():
            clipper = build_clipper(
                {"a": lambda: NoOpContainer(output=1), "b": lambda: NoOpContainer(output=0)},
                policy="exp4",
            )
            await clipper.start()
            for i in range(20):
                x = np.array([float(i)])
                await clipper.feedback(
                    Feedback(app_name="test-app", input=x, label=1, user_id="alice")
                )
            await clipper.stop()
            alice = clipper.selection_manager.get_state("alice")
            fresh = clipper.selection_manager.get_state("bob")
            assert alice["weights"]["a:1"] > alice["weights"]["b:1"]
            assert fresh["weights"]["a:1"] == fresh["weights"]["b:1"]

        run_async(scenario())


class TestStragglerMitigation:
    def test_slow_model_does_not_block_prediction(self):
        async def scenario():
            clipper = build_clipper(
                {
                    "fast": lambda: NoOpContainer(output=1),
                    "slow": lambda: SimulatedLatencyContainer(
                        base_latency_ms=500.0, default_output=1, random_state=0
                    ),
                },
                policy="exp4",
                slo_ms=80.0,
            )
            await clipper.start()
            start = time.perf_counter()
            prediction = await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            await clipper.stop()
            assert elapsed_ms < 400.0
            assert "slow:1" in prediction.models_missing
            assert prediction.confidence < 1.0

        run_async(scenario())

    def test_without_mitigation_prediction_waits_for_all(self):
        async def scenario():
            clipper = build_clipper(
                {
                    "fast": lambda: NoOpContainer(output=1),
                    "slow": lambda: SimulatedLatencyContainer(
                        base_latency_ms=150.0, default_output=1, random_state=0
                    ),
                },
                policy="exp4",
                slo_ms=50.0,
                straggler_mitigation=False,
            )
            await clipper.start()
            prediction = await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))
            await clipper.stop()
            assert prediction.models_missing == ()
            assert prediction.latency_ms >= 100.0

        run_async(scenario())

    def test_default_output_when_every_model_misses_deadline(self):
        async def scenario():
            clipper = build_clipper(
                {
                    "slow": lambda: SimulatedLatencyContainer(
                        base_latency_ms=300.0, default_output=0, random_state=0
                    )
                },
                policy="single",
                slo_ms=30.0,
                default_output=-1,
            )
            await clipper.start()
            prediction = await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))
            await clipper.stop()
            assert prediction.default_used
            assert prediction.output == -1
            assert prediction.confidence == 0.0

        run_async(scenario())

    def test_timeout_error_when_no_default_configured(self):
        async def scenario():
            clipper = build_clipper(
                {
                    "slow": lambda: SimulatedLatencyContainer(
                        base_latency_ms=300.0, default_output=0, random_state=0
                    )
                },
                policy="single",
                slo_ms=30.0,
            )
            await clipper.start()
            with pytest.raises(PredictionTimeoutError):
                await clipper.predict(Query(app_name="test-app", input=np.zeros(1)))
            await clipper.stop()

        run_async(scenario())


class TestReplication:
    def test_multiple_replicas_share_the_queue(self):
        async def scenario():
            # A generous SLO keeps this timing-sensitive test robust on a
            # loaded CI machine; replica sharing, not latency, is under test.
            clipper = Clipper(
                ClipperConfig(
                    app_name="test-app", selection_policy="single", latency_slo_ms=500.0
                )
            )
            clipper.deploy_model(
                ModelDeployment(
                    name="noop",
                    container_factory=lambda: NoOpContainer(output=1),
                    num_replicas=3,
                )
            )
            await clipper.start()
            queries = [Query(app_name="test-app", input=np.array([float(i)])) for i in range(60)]
            predictions = await asyncio.gather(*[clipper.predict(q) for q in queries])
            await clipper.stop()
            assert all(p.output == 1 for p in predictions)

        run_async(scenario())
