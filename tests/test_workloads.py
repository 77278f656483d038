"""Tests for the kit's load driver and model degradation."""

import asyncio

import pytest

from helpers import run_async
from paperkit.load import LoadResult, run_load
from paperkit.served_selection import degrade_prediction


class _Recorder:
    """A ``predict(x)`` coroutine that sleeps, records what it saw and may fail."""

    def __init__(self, delay_s=0.0, fail_on=()):
        self.delay_s = delay_s
        self.fail_on = set(fail_on)
        self.seen = []
        self.in_flight = 0
        self.max_in_flight = 0

    async def __call__(self, x):
        self.seen.append(x)
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            await asyncio.sleep(self.delay_s)
            if x in self.fail_on:
                raise RuntimeError(f"refused {x}")
            return x
        finally:
            self.in_flight -= 1


class TestRunLoad:
    def test_closed_loop_cycles_inputs_at_the_given_concurrency(self):
        predict = _Recorder(delay_s=0.001)
        result = run_async(run_load(predict, [0, 1, 2], 10, concurrency=4))
        assert sorted(predict.seen) == sorted([0, 1, 2] * 3 + [0])
        assert predict.max_in_flight == 4
        assert result.num_queries == 10 and result.num_errors == 0
        assert len(result.latencies_ms) == 10

    def test_latency_is_timed_by_the_caller(self):
        result = run_async(run_load(_Recorder(delay_s=0.02), [0], 4, concurrency=2))
        assert min(result.latencies_ms) >= 19.0
        assert result.mean_latency_ms >= 19.0

    def test_a_failed_query_counts_as_an_error_without_a_latency(self):
        result = run_async(run_load(_Recorder(fail_on={1}), [0, 1], 6, concurrency=1))
        assert result.num_errors == 3
        assert len(result.latencies_ms) == 3
        assert result.throughput_qps == pytest.approx(3 / result.elapsed_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_async(run_load(_Recorder(), [0], 0))
        with pytest.raises(ValueError):
            run_async(run_load(_Recorder(), [], 1))
        with pytest.raises(ValueError):
            run_async(run_load(_Recorder(), [0], 1, concurrency=0))

    def test_row_shape(self):
        result = LoadResult(4, 1, 0.5, [1.0, 2.0, 3.0], label="x", mean_batch_size=2.0)
        row = result.as_row()
        assert row["label"] == "x" and row["errors"] == 1
        assert row["throughput_qps"] == pytest.approx(6.0)
        assert row["mean_latency_ms"] == pytest.approx(2.0)
        assert {"p99_latency_ms", "mean_batch_size"} <= set(row)


class TestDegradePrediction:
    def test_full_corruption_always_changes_the_label(self, rng):
        for _ in range(50):
            assert degrade_prediction(3, n_classes=10, rng=rng, corruption_rate=1.0) != 3

    def test_zero_corruption_is_identity(self, rng):
        assert degrade_prediction(3, n_classes=10, rng=rng, corruption_rate=0.0) == 3

    def test_partial_corruption_rate(self, rng):
        changed = sum(
            degrade_prediction(1, n_classes=5, rng=rng, corruption_rate=0.5) != 1
            for _ in range(2000)
        )
        assert 800 < changed < 1200

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            degrade_prediction(1, 5, rng, corruption_rate=1.5)
