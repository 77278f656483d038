"""§4.2 claim — prediction caching accelerates feedback processing.

The paper reports that with a four-model ensemble, enabling the prediction
cache increased feedback-processing throughput by ~1.6x (6K -> 11K
observations/s): joining feedback with cached predictions avoids
re-evaluating every model in the ensemble.  This benchmark replays the same
feedback stream through a Clipper instance with and without the prediction
cache and compares feedback throughput, and additionally benchmarks the raw
cache data structures.
"""

import time

import numpy as np

from conftest import record_result
from paperkit.reporting import format_table
from paperkit.suites import heterogeneous_ensemble
from repro.cache.prediction_cache import PredictionCache
from repro.containers.adapters import ClassifierContainer
from repro.core.clipper import Clipper
from repro.core.config import ClipperConfig, ModelDeployment
from repro.core.types import Feedback, Query

N_FEEDBACK = 150


def _feedback_throughput(models, dataset, cache_size):
    """Predictions first (warming the cache when enabled), then timed feedback."""
    import asyncio

    async def run():
        clipper = Clipper(
            ClipperConfig(
                app_name="cache-bench",
                latency_slo_ms=100.0,
                selection_policy="exp4",
                cache_size=cache_size,
            )
        )
        for name, model in models.items():
            clipper.deploy_model(
                ModelDeployment(
                    name=name,
                    container_factory=lambda model=model: ClassifierContainer(model),
                )
            )
        await clipper.start()
        inputs = [dataset.X_test[i % dataset.X_test.shape[0]] for i in range(N_FEEDBACK)]
        labels = [int(dataset.y_test[i % dataset.y_test.shape[0]]) for i in range(N_FEEDBACK)]
        for x in inputs:
            await clipper.predict(Query(app_name="cache-bench", input=x))
        start = time.perf_counter()
        for x, label in zip(inputs, labels):
            await clipper.feedback(Feedback(app_name="cache-bench", input=x, label=label))
        elapsed = time.perf_counter() - start
        await clipper.stop()
        return N_FEEDBACK / elapsed, clipper.cache.stats.hit_rate

    loop = __import__("asyncio").new_event_loop()
    try:
        return loop.run_until_complete(run())
    finally:
        loop.close()


def test_caching_feedback_throughput(benchmark, cifar_eval_dataset):
    models = heterogeneous_ensemble(cifar_eval_dataset, n_models=4, random_state=0)

    def run():
        with_cache, hit_rate = _feedback_throughput(models, cifar_eval_dataset, cache_size=65536)
        without_cache, _ = _feedback_throughput(models, cifar_eval_dataset, cache_size=0)
        return with_cache, without_cache, hit_rate

    with_cache, without_cache, hit_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = with_cache / without_cache
    rows = [
        {"configuration": "prediction cache enabled", "feedback_per_s": with_cache},
        {"configuration": "prediction cache disabled", "feedback_per_s": without_cache},
        {"configuration": "speedup", "feedback_per_s": speedup},
    ]
    record_result(
        "caching_feedback_throughput",
        format_table(rows, title="§4.2: feedback-processing throughput (4-model ensemble)"),
    )
    # Paper: ~1.6x. Require a clear improvement.
    assert speedup > 1.2
    # Every feedback lookup after the warm-up predictions should hit, giving a
    # hit rate of exactly one half over the whole run (miss on predict, hit on
    # feedback).
    assert hit_rate >= 0.5


class TestRawCacheStructures:
    def test_clock_cache_throughput(self, benchmark):
        cache = PredictionCache(capacity=4096)
        digests = [f"key-{i}" for i in range(8192)]

        def workload():
            for i, digest in enumerate(digests):
                cache.put_by_hash("model:1", (digest,), (i,))
                cache.fetch_by_hash(("model:1",), digests[i // 2])

        benchmark(workload)
        assert len(cache) <= 4096

    def test_prediction_cache_hashing_throughput(self, benchmark):
        cache = PredictionCache(capacity=4096)
        x = np.random.default_rng(0).normal(size=784)

        def workload():
            cache.put("model:1", x, 3)
            return cache.fetch("model:1", x)

        result = benchmark(workload)
        assert result == 3
