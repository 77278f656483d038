"""Tests for the metrics registry (counters, histograms, gauges)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import metrics
from repro.core.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6


class TestHistogram:
    def test_percentiles_and_mean(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.mean() == pytest.approx(50.5)
        assert hist.p50() == pytest.approx(50.5)
        assert hist.p99() == pytest.approx(99.01, rel=1e-2)
        assert hist.max() == 100.0
        assert hist.count == 100

    def test_window_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(metrics, "WINDOW_SIZE", 10)
        hist = Histogram("h")
        for value in range(100):
            hist.observe(float(value))
        assert len(hist.values()) == 10
        assert min(hist.values()) == 90.0
        assert hist.count == 100

    def test_empty_histogram_returns_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.mean())
        assert math.isnan(hist.p99())

    def test_empty_reservoir_quantiles_all_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.p50())
        assert math.isnan(hist.p95())
        assert math.isnan(hist.max())
        assert hist.count == 0
        assert hist.values() == []

    def test_single_sample_quantiles_collapse_to_it(self):
        hist = Histogram("h")
        hist.observe(7.5)
        assert hist.p50() == 7.5
        assert hist.p95() == 7.5
        assert hist.p99() == 7.5
        assert hist.mean() == 7.5
        assert hist.max() == 7.5
        assert hist.count == 1

    def test_nan_observations_are_rejected(self):
        hist = Histogram("h")
        hist.observe(float("nan"))
        assert hist.count == 0
        hist.observe(1.0)
        hist.observe(float("nan"))
        assert hist.count == 1
        assert hist.values() == [1.0]
        assert hist.p50() == 1.0


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_contains_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("queries").increment(4)
        registry.histogram("latency").observe(1.5)
        registry.gauge("depth").set(3)
        snapshot = registry.snapshot()
        assert snapshot.counters["queries"] == 4
        assert snapshot.histograms["latency"]["count"] == 1.0
        assert snapshot.gauges["depth"] == 3.0

    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=40),
        window=st.integers(1, 16),
    )
    def test_a_snapshot_reads_what_the_histogram_methods_read(self, values, window):
        """One read of the window gives each reading the methods give alone,
        to the bit, with the lifetime count beside the window's quantiles."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "WINDOW_SIZE", window)
            registry = MetricsRegistry()
            histogram = registry.histogram("h")
        for value in values:
            histogram.observe(value)
        summary = registry.snapshot().histograms["h"]
        expected = {"count": float(len(values))}
        if values:
            expected.update(
                mean=histogram.mean(), p50=histogram.p50(), p95=histogram.p95(),
                p99=histogram.p99(), max=histogram.max(),
            )
        assert summary == expected
        assert all(type(reading) is float for reading in summary.values())


class TestCallbackGauge:
    def test_reads_its_callback_at_snapshot_time(self):
        registry = MetricsRegistry()
        depth = [3]
        registry.gauge("queue.depth", fn=lambda: depth[0])
        depth[0] = 7
        assert registry.snapshot().gauges["queue.depth"] == 7.0

    @pytest.mark.parametrize(
        "reading", [lambda: 1 / 0, lambda: {}["gone"], lambda: None, lambda: "n/a"]
    )
    def test_a_reading_that_fails_is_nan_and_the_snapshot_survives(self, reading):
        registry = MetricsRegistry()
        registry.gauge("bad", fn=reading)
        registry.gauge("good", fn=lambda: 1)
        gauges = registry.snapshot().gauges
        assert math.isnan(gauges["bad"]) and gauges["good"] == 1.0


class TestMetricFamily:
    def test_labels_memoises_children(self):
        registry = MetricsRegistry()
        family = registry.histogram_family("predict.stage_ms", label="stage")
        child = family.labels("rpc.send")
        assert family.labels("rpc.send") is child
        assert family.labels("queue_wait") is not child

    def test_child_names_carry_inline_label(self):
        registry = MetricsRegistry()
        family = registry.counter_family("events", label="kind")
        child = family.labels("retry")
        assert child.name == 'events{kind="retry"}'

    def test_children_register_in_main_registry(self):
        registry = MetricsRegistry()
        family = registry.histogram_family("stage_ms", label="stage")
        family.labels("combine").observe(1.0)
        snapshot = registry.snapshot()
        assert 'stage_ms{stage="combine"}' in snapshot.histograms
        # The child IS the registry's histogram under that composed name.
        assert family.labels("combine") is registry.histogram('stage_ms{stage="combine"}')

    def test_same_family_returned_for_same_name(self):
        registry = MetricsRegistry()
        assert registry.histogram_family("f", label="stage") is registry.histogram_family(
            "f", label="stage"
        )
        assert registry.counter_family("f2").labels("a") is registry.counter_family(
            "f2"
        ).labels("a")
