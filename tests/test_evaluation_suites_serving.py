"""Tests for the model suites, the overhead wrapper and the serving drivers."""

import time

import numpy as np
import pytest

from paperkit.datasets.images import load_mnist_like
from paperkit.datasets.speech import load_timit_like
from paperkit.overhead import LanguageOverheadContainer
from paperkit.serving import run_clipper_serving, run_tfserving_baseline
from paperkit.suites import (
    build_user_streams,
    dialect_model_suite,
    ensemble_prediction_matrix,
    figure3_container_suite,
    heterogeneous_ensemble,
)
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer
from repro.core.config import BatchingConfig


@pytest.fixture(scope="module")
def tiny_mnist():
    return load_mnist_like(n_samples=400, n_features=32, random_state=0)


class TestFigure3Suite:
    def test_contains_the_six_paper_containers(self, tiny_mnist):
        suite = figure3_container_suite(tiny_mnist, kernel_support_vectors=100)
        names = [spec.name for spec in suite]
        assert names == [
            "no-op",
            "linear-svm-sklearn",
            "linear-svm-pyspark",
            "random-forest-sklearn",
            "kernel-svm-sklearn",
            "logistic-regression-sklearn",
        ]

    def test_factories_produce_working_containers(self, tiny_mnist):
        suite = figure3_container_suite(tiny_mnist, kernel_support_vectors=100)
        x = tiny_mnist.X_test[0]
        for spec in suite:
            container = spec.factory()
            assert isinstance(container, ModelContainer)
            outputs = container.predict_batch([x, x])
            assert len(outputs) == 2

    def test_factories_are_reusable(self, tiny_mnist):
        suite = figure3_container_suite(tiny_mnist, kernel_support_vectors=100)
        spec = suite[1]
        assert spec.factory() is not spec.factory()


class TestLanguageOverheadContainer:
    def test_adds_measurable_overhead(self):
        inner = NoOpContainer()
        slow = LanguageOverheadContainer(inner, per_batch_overhead_ms=5.0)
        start = time.perf_counter()
        slow.predict_batch([1])
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert elapsed_ms >= 4.0

    def test_outputs_pass_through(self):
        inner = NoOpContainer(output=7)
        wrapped = LanguageOverheadContainer(inner, per_batch_overhead_ms=0.0)
        assert wrapped.predict_batch([1, 2]) == [7, 7]

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            LanguageOverheadContainer(NoOpContainer(), per_batch_overhead_ms=-1)


class TestHeterogeneousEnsemble:
    def test_builds_requested_number_of_models(self, tiny_mnist):
        models = heterogeneous_ensemble(tiny_mnist, n_models=4, random_state=0)
        assert len(models) == 4

    def test_models_have_an_accuracy_spread(self, tiny_mnist):
        models = heterogeneous_ensemble(tiny_mnist, n_models=5, random_state=0)
        predictions = ensemble_prediction_matrix(models, tiny_mnist.X_test)
        errors = {
            name: float(np.mean(pred != tiny_mnist.y_test))
            for name, pred in predictions.items()
        }
        assert max(errors.values()) - min(errors.values()) > 0.05

    def test_prediction_matrix_shapes(self, tiny_mnist):
        models = heterogeneous_ensemble(tiny_mnist, n_models=3, random_state=0)
        predictions = ensemble_prediction_matrix(models, tiny_mnist.X_test)
        assert all(p.shape == (tiny_mnist.X_test.shape[0],) for p in predictions.values())

    def test_validation(self, tiny_mnist):
        with pytest.raises(ValueError):
            heterogeneous_ensemble(tiny_mnist, n_models=1)


class TestDialectSuite:
    def test_builds_one_model_per_dialect_plus_global(self):
        corpus = load_timit_like(n_speakers=24, utterances_per_speaker=6, random_state=0)
        models, global_name = dialect_model_suite(corpus, random_state=0)
        assert global_name in models
        assert sum(1 for name in models if name.startswith("dialect-")) == corpus.n_dialects

    def test_user_streams_cover_test_speakers(self):
        corpus = load_timit_like(n_speakers=24, utterances_per_speaker=6, random_state=0)
        models, _ = dialect_model_suite(corpus, random_state=0)
        streams, dialect_of_user = build_user_streams(corpus, models, max_steps=4)
        assert len(streams) == len(corpus.test_speakers())
        assert set(streams) == set(dialect_of_user)
        some_stream = next(iter(streams.values()))
        step, per_model, label = some_stream[0]
        assert step == 0
        assert set(per_model) == set(models)


class TestServingDrivers:
    def test_run_clipper_serving_measures_throughput(self):
        measurement = run_clipper_serving(
            container_factory=lambda: NoOpContainer(output=1),
            inputs=[np.zeros(8)] * 32,
            label="noop",
            num_queries=200,
            latency_slo_ms=50.0,
            batching=BatchingConfig(policy="aimd"),
            concurrency=16,
        )
        assert measurement.throughput_qps > 0
        assert measurement.num_errors == 0
        assert measurement.mean_latency_ms > 0
        assert measurement.mean_batch_size >= 1.0

    def test_no_batching_policy_has_unit_batches(self):
        measurement = run_clipper_serving(
            container_factory=lambda: NoOpContainer(output=1),
            inputs=[np.zeros(8)] * 16,
            label="nobatch",
            num_queries=100,
            batching=BatchingConfig(policy="none"),
            concurrency=8,
        )
        assert measurement.mean_batch_size == pytest.approx(1.0)

    def test_run_tfserving_baseline(self):
        measurement = run_tfserving_baseline(
            NoOpContainer(output=1),
            inputs=[np.zeros(8)] * 16,
            num_queries=150,
            batch_size=16,
            concurrency=16,
        )
        assert measurement.throughput_qps > 0
        assert measurement.num_errors == 0

    def test_measurement_row_shape(self):
        measurement = run_tfserving_baseline(
            NoOpContainer(output=1), inputs=[np.zeros(4)] * 4, num_queries=20, batch_size=4
        )
        row = measurement.as_row()
        assert {"label", "throughput_qps", "p99_latency_ms"} <= set(row)
