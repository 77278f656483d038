"""Tests for the metrics registry (counters, meters, histograms)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import (
    Counter,
    Histogram,
    Meter,
    MetricsRegistry,
    summarize_latencies,
    throughput_qps,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_reset(self):
        counter = Counter("c")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestMeter:
    def test_rate_counts_events_over_time(self):
        times = iter([0.0, 10.0])
        meter = Meter("m", clock=lambda: next(times, 10.0))
        meter.mark(100)
        assert meter.rate() == pytest.approx(10.0)

    def test_zero_elapsed_rate_is_zero(self):
        meter = Meter("m", clock=lambda: 5.0)
        meter.mark(10)
        assert meter.rate() == 0.0


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

    def test_window_bounds_memory(self):
        hist = Histogram("h", window_size=10)
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
        assert registry.meter("m") is registry.meter("m")

    def test_snapshot_contains_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("queries").increment(4)
        registry.histogram("latency").observe(1.5)
        registry.meter("rate").mark(2)
        snapshot = registry.snapshot()
        assert snapshot.counters["queries"] == 4
        assert snapshot.histograms["latency"]["count"] == 1.0
        assert "rate" in snapshot.meters
        assert "counter queries = 4" in snapshot.describe()

    def test_reset_clears_values_but_keeps_names(self):
        registry = MetricsRegistry()
        registry.counter("queries").increment(4)
        registry.reset()
        assert registry.counter("queries").value == 0


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


class TestHelpers:
    def test_summarize_latencies(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_summarize_empty(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])

    def test_throughput(self):
        assert throughput_qps(100, 2.0) == 50.0
        assert throughput_qps(0, 0.0) == 0.0
        assert math.isinf(throughput_qps(10, 0.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_summary_percentiles_are_ordered(self, values):
        summary = summarize_latencies(values)
        assert summary["p50"] <= summary["p95"] + 1e-9
        assert summary["p95"] <= summary["p99"] + 1e-9
        assert summary["p99"] <= summary["max"] + 1e-9
        assert min(values) - 1e-9 <= summary["mean"] <= max(values) + 1e-9
