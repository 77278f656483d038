"""Tests for workload arrival processes, clients and model degradation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.arrivals import BurstyArrivals, PoissonArrivals
from repro.workloads.feedback import degrade_prediction


class TestPoissonArrivals:
    def test_mean_rate_approximately_matches(self):
        gaps = np.array(list(PoissonArrivals(rate_qps=200, random_state=0).gaps(5000)))
        assert 1.0 / gaps.mean() == pytest.approx(200, rel=0.1)

    def test_deterministic_given_seed(self):
        a = list(PoissonArrivals(100, random_state=3).gaps(10))
        b = list(PoissonArrivals(100, random_state=3).gaps(10))
        assert a == b

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_qps=-1)


class TestBurstyArrivals:
    def test_produces_requested_number_of_gaps(self):
        gaps = list(BurstyArrivals(1000, 10, random_state=0).gaps(500))
        assert len(gaps) == 500
        assert all(gap >= 0 for gap in gaps)

    def test_burst_rate_exceeds_idle_rate_on_average(self):
        process = BurstyArrivals(
            burst_qps=2000, idle_qps=20, mean_burst_length=100, mean_idle_length=100, random_state=1
        )
        gaps = np.array(list(process.gaps(4000)))
        # Mixture mean gap must lie strictly between the two pure-rate gaps.
        assert 1.0 / 2000 < gaps.mean() < 1.0 / 20

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(0, 10)
        with pytest.raises(ValueError):
            BurstyArrivals(10, 10, mean_burst_length=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_always_yields_exactly_n(self, n):
        gaps = list(BurstyArrivals(100, 10, random_state=0).gaps(n))
        assert len(gaps) == n


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
