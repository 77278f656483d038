"""Tests for the kit's load driver, on both clocks, and model degradation."""

import asyncio

import pytest

from helpers import run_async
from paperkit.load import LoadResult, drive, poisson
from paperkit.served_selection import degrade_prediction
from simloop import run_virtual


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


class TestDrive:
    def test_closed_loop_users_take_the_next_index_in_order(self):
        query = _Recorder(delay_s=0.001)
        answers = run_async(drive(query, users=4, count=10))
        assert query.seen == list(range(10))
        assert query.max_in_flight == 4
        assert len(answers) == 10 and all(a.latency_ms >= 0.9 for a in answers)

    def test_a_failed_query_is_counted_without_a_latency(self):
        answers = run_async(drive(_Recorder(fail_on={1, 4}), users=2, count=6, fails=RuntimeError))
        assert [a.latency_ms is None for a in answers] == [False, True, False, False, True, False]
        result = LoadResult.of(answers, start=min(a.at for a in answers))
        assert (result.num_queries, result.num_errors, len(result.latencies_ms)) == (6, 2, 4)

    @pytest.mark.parametrize("mode", [{"users": 3, "count": 30}, {"due": poisson(2000.0, 0.5, 3)}])
    @pytest.mark.parametrize("fail_on, timeout_s", [({1}, 60.0), ((), 0.02)])  # raise, time out
    def test_a_run_that_ends_early_cancels_the_queries_in_flight(self, mode, fail_on, timeout_s):
        query = _Recorder(delay_s=0.005, fail_on=fail_on)

        async def run():
            with pytest.raises((ExceptionGroup, TimeoutError)):  # unnamed, or the caller's
                await asyncio.wait_for(drive(query, **mode), timeout_s)
            await asyncio.sleep(0)  # no loop time passes: a query not cancelled still sleeps
            return query.in_flight

        assert run_virtual(run()) == 0 and query.max_in_flight > 1

    def test_a_seeded_schedule_starts_each_query_at_its_due_time(self):
        async def run(seed):
            loop, started = asyncio.get_running_loop(), []

            async def query(i):
                started.append(loop.time())
                await asyncio.sleep(0.002 * (i % 3))

            return started, await drive(query, due=poisson(2000.0, 0.5, seed))

        due = list(poisson(2000.0, 0.5, seed=3)(0.0))  # a VirtualLoop starts at 0
        started, answers = run_virtual(run(seed=3))
        assert 900 < len(due) < 1100 and started == due
        # Latency counts from the due time, on the loop's virtual clock.
        for i, answer in enumerate(answers):
            assert answer.latency_ms == pytest.approx(2.0 * (i % 3), abs=1e-6)
        assert run_virtual(run(seed=3))[0] == due != run_virtual(run(seed=4))[0]

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
