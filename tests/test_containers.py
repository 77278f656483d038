"""Tests for model containers: base interface, adapters, no-op, overhead wrappers."""

import time

import numpy as np
import pytest

from helpers import SimulatedLatencyContainer
from repro.containers.adapters import ClassifierContainer
from repro.containers.base import FunctionContainer, ModelContainer
from repro.containers.noop import NoOpContainer
from repro.containers.overhead import LanguageOverheadContainer


class TestFunctionContainer:
    def test_wraps_batch_function(self):
        container = FunctionContainer(lambda xs: [x * 2 for x in xs])
        assert container.predict_batch([1, 2, 3]) == [2, 4, 6]

    def test_predict_single_input(self):
        container = FunctionContainer(lambda xs: [sum(x) for x in xs])
        assert container.predict([1, 2, 3]) == 6

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            FunctionContainer(42)

    def test_wrong_output_length_raises(self):
        container = FunctionContainer(lambda xs: [0])
        with pytest.raises(ValueError):
            container.predict_batch([1, 2])

    def test_base_class_predict_batch_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ModelContainer().predict_batch([1])


class TestNoOpContainer:
    def test_returns_constant_output(self):
        container = NoOpContainer(output=5)
        assert container.predict_batch([np.ones(3)] * 4) == [5, 5, 5, 5]

    def test_counts_batches(self):
        container = NoOpContainer()
        container.predict_batch([1])
        container.predict_batch([1, 2])
        assert container.batches_served == 2

    def test_touch_inputs_mode(self):
        container = NoOpContainer(touch_inputs=True)
        outputs = container.predict_batch([np.ones(10), np.zeros(0)])
        assert outputs == [0, 0]


class TestClassifierContainer:
    def test_serves_labels(self, trained_svm, mnist_like_small):
        container = ClassifierContainer(trained_svm)
        ds = mnist_like_small
        outputs = container.predict_batch([ds.X_test[i] for i in range(5)])
        assert len(outputs) == 5
        assert all(isinstance(o, (int, float)) for o in outputs)

    def test_matches_direct_model_predictions(self, trained_svm, mnist_like_small):
        ds = mnist_like_small
        container = ClassifierContainer(trained_svm)
        direct = trained_svm.predict(ds.X_test[:8])
        served = container.predict_batch([ds.X_test[i] for i in range(8)])
        np.testing.assert_array_equal(np.asarray(served), direct)

    def test_proba_mode_returns_vectors(self, trained_svm, mnist_like_small):
        ds = mnist_like_small
        container = ClassifierContainer(trained_svm, return_proba=True)
        outputs = container.predict_batch([ds.X_test[0]])
        assert outputs[0].shape == (10,)
        assert np.isclose(outputs[0].sum(), 1.0)

    def test_empty_batch(self, trained_svm):
        assert ClassifierContainer(trained_svm).predict_batch([]) == []

    def test_requires_predict_method(self):
        with pytest.raises(TypeError):
            ClassifierContainer(object())


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


class TestSimulatedLatencyContainer:
    def test_latency_scales_with_batch_size(self):
        container = SimulatedLatencyContainer(
            base_latency_ms=1.0, per_item_latency_ms=0.5, random_state=0
        )
        assert container.sample_delay_ms(10) == pytest.approx(6.0)

    def test_straggler_tail(self):
        container = SimulatedLatencyContainer(
            base_latency_ms=1.0,
            straggler_probability=1.0,
            straggler_extra_ms=100.0,
            random_state=0,
        )
        delay = container.sample_delay_ms(1)
        assert delay >= 51.0

    def test_sleeps_for_configured_latency(self):
        container = SimulatedLatencyContainer(base_latency_ms=10.0, random_state=0)
        start = time.perf_counter()
        outputs = container.predict_batch([1, 2])
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert elapsed_ms >= 8.0
        assert outputs == [0, 0]

    def test_wraps_inner_container_outputs(self):
        container = SimulatedLatencyContainer(
            inner=NoOpContainer(output=3), base_latency_ms=0.0
        )
        assert container.predict_batch([1]) == [3]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedLatencyContainer(base_latency_ms=-1)
        with pytest.raises(ValueError):
            SimulatedLatencyContainer(straggler_probability=2.0)
