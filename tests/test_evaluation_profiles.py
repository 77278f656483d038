"""Tests for latency-profile measurement, latency summaries and table rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import SimulatedLatencyContainer
from paperkit.profiles import (
    LatencyProfile,
    max_batch_under_slo,
    measure_latency_profile,
)
from paperkit.reporting import format_table, summarize_latencies
from repro.containers.noop import NoOpContainer


class TestMeasureLatencyProfile:
    def test_measures_requested_batch_sizes(self):
        container = NoOpContainer()
        inputs = [np.zeros(4)] * 8
        profile = measure_latency_profile(container, inputs, batch_sizes=[1, 4, 8], repeats=2)
        assert profile.batch_sizes == [1, 4, 8]
        assert all(len(profile.latencies_ms[b]) == 2 for b in (1, 4, 8))

    def test_latency_grows_with_batch_for_per_item_cost(self):
        container = SimulatedLatencyContainer(
            base_latency_ms=0.5, per_item_latency_ms=0.5, random_state=0
        )
        profile = measure_latency_profile(
            container, [np.zeros(2)], batch_sizes=[1, 16], repeats=2, warmup=0
        )
        assert profile.mean(16) > profile.mean(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_latency_profile(NoOpContainer(), [], batch_sizes=[1])
        with pytest.raises(ValueError):
            measure_latency_profile(NoOpContainer(), [np.zeros(1)], batch_sizes=[0])
        with pytest.raises(ValueError):
            measure_latency_profile(NoOpContainer(), [np.zeros(1)], batch_sizes=[1], repeats=0)

    def test_rows_rendering(self):
        profile = measure_latency_profile(NoOpContainer(), [np.zeros(1)], batch_sizes=[1, 2])
        rows = profile.rows()
        assert len(rows) == 2
        assert {"batch_size", "mean_ms", "p99_ms", "p99_us"} <= set(rows[0])
        rendered = format_table(rows, title="profile")
        assert "profile" in rendered
        assert "batch_size" in rendered


class TestMaxBatchUnderSlo:
    def _profile(self, mapping):
        profile = LatencyProfile(container_name="synthetic")
        for batch, latency in mapping.items():
            profile.batch_sizes.append(batch)
            profile.latencies_ms[batch] = [latency]
        return profile

    def test_picks_largest_passing_batch(self):
        profile = self._profile({1: 1.0, 10: 5.0, 100: 50.0})
        assert max_batch_under_slo(profile, slo_ms=6.0) >= 10

    def test_interpolates_between_measured_sizes(self):
        profile = self._profile({10: 10.0, 20: 20.0})
        assert 14 <= max_batch_under_slo(profile, slo_ms=15.0) <= 16

    def test_returns_zero_when_even_smallest_batch_misses(self):
        profile = self._profile({1: 100.0})
        assert max_batch_under_slo(profile, slo_ms=10.0) == 0

    def test_all_pass_returns_largest(self):
        profile = self._profile({1: 1.0, 64: 2.0})
        assert max_batch_under_slo(profile, slo_ms=10.0) == 64

    def test_slo_must_be_positive(self):
        with pytest.raises(ValueError):
            max_batch_under_slo(self._profile({1: 1.0}), slo_ms=0)

    def test_figure3_headline_ratio_reproduced_in_miniature(self):
        """The cheap container's max batch should dwarf the expensive one's."""
        cheap = self._profile({1: 0.1, 100: 0.5, 1000: 4.0, 2000: 8.0})
        expensive = self._profile({1: 3.0, 4: 12.0, 8: 24.0})
        ratio = max_batch_under_slo(cheap, 20.0) / max(max_batch_under_slo(expensive, 20.0), 1)
        assert ratio > 100


class TestFormatTable:
    def test_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_alignment_and_floats(self):
        rows = [{"name": "a", "value": 1.23456}, {"name": "bb", "value": 2.0}]
        rendered = format_table(rows)
        lines = rendered.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in rendered


class TestSummarizeLatencies:
    def test_summarize_latencies(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_summarize_empty(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_summary_percentiles_are_ordered(self, values):
        summary = summarize_latencies(values)
        assert summary["p50"] <= summary["p95"] + 1e-9
        assert summary["p95"] <= summary["p99"] + 1e-9
        assert summary["p99"] <= summary["max"] + 1e-9
        assert min(values) - 1e-9 <= summary["mean"] <= max(values) + 1e-9
