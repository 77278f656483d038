"""Tests for batch-size controllers: AIMD, quantile regression, fixed, none."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.batching.controllers import (
    AIMDController,
    FixedBatchSizeController,
    QuantileRegressionController,
    fit_quantile_line,
    make_controller,
)
from repro.core.config import BatchingConfig

POLICIES = ["aimd", "quantile", "fixed", "none"]


class TestAIMD:
    def test_additive_increase_under_slo(self):
        controller = AIMDController(
            BatchingConfig(initial_batch_size=1, additive_increase=2), slo_ms=20.0
        )
        for _ in range(5):
            controller.observe(controller.current_batch_size(), latency_ms=5.0)
        assert controller.current_batch_size() == 11
        assert controller.increases == 5

    def test_multiplicative_backoff_over_slo(self):
        controller = AIMDController(BatchingConfig(initial_batch_size=100), slo_ms=20.0)
        controller.observe(100, latency_ms=30.0)
        assert controller.current_batch_size() == 90
        assert controller.backoffs == 1

    def test_no_increase_when_batch_smaller_than_allowance(self):
        controller = AIMDController(BatchingConfig(initial_batch_size=50), slo_ms=20.0)
        controller.observe(batch_size=3, latency_ms=1.0)
        assert controller.current_batch_size() == 50

    def test_converges_near_capacity_for_linear_latency(self):
        # Latency model: 0.1 ms per item => 200 items fit a 20 ms SLO.
        controller = AIMDController(
            BatchingConfig(initial_batch_size=1, additive_increase=4), slo_ms=20.0
        )
        for _ in range(300):
            batch = controller.current_batch_size()
            controller.observe(batch, latency_ms=0.1 * batch)
        assert 150 <= controller.current_batch_size() <= 220

    def test_never_drops_below_one(self):
        controller = AIMDController(BatchingConfig(initial_batch_size=1), slo_ms=1.0)
        for _ in range(50):
            controller.observe(controller.current_batch_size(), latency_ms=100.0)
        assert controller.current_batch_size() == 1

    def test_respects_hard_max(self):
        controller = AIMDController(
            BatchingConfig(initial_batch_size=1, additive_increase=100, max_batch_size=128),
            slo_ms=1e6,
        )
        for _ in range(50):
            controller.observe(controller.current_batch_size(), latency_ms=0.1)
        assert controller.current_batch_size() == 128

    @pytest.mark.parametrize("policy", POLICIES)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=100),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_batch_size_always_within_bounds(self, policy, latencies, slo):
        controller = make_controller(
            BatchingConfig(policy=policy, initial_batch_size=4, max_batch_size=256), slo_ms=slo
        )
        for latency in latencies:
            controller.observe(controller.current_batch_size(), latency)
            assert 1 <= controller.current_batch_size() <= 256


class TestQuantileLineFit:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        sizes = np.repeat(np.arange(1, 50), 4)
        latencies = 2.0 + 0.5 * sizes + rng.uniform(0, 0.2, size=sizes.shape)
        intercept, slope = fit_quantile_line(sizes, latencies, quantile=0.99)
        assert slope == pytest.approx(0.5, abs=0.1)
        assert intercept == pytest.approx(2.2, abs=0.5)

    def test_quantile_line_sits_above_median(self):
        rng = np.random.default_rng(1)
        sizes = np.repeat(np.arange(1, 30), 10)
        noise = rng.exponential(1.0, size=sizes.shape)
        latencies = 1.0 + 0.3 * sizes + noise
        i99, s99 = fit_quantile_line(sizes, latencies, quantile=0.99)
        i50, s50 = fit_quantile_line(sizes, latencies, quantile=0.5)
        mid = 15
        assert i99 + s99 * mid > i50 + s50 * mid

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_quantile_line(np.array([1.0]), np.array([2.0]))

    def test_requires_valid_quantile(self):
        with pytest.raises(ValueError):
            fit_quantile_line(np.array([1.0, 2.0]), np.array([1.0, 2.0]), quantile=1.5)


class TestQuantileController:
    def test_converges_to_slo_capacity(self):
        # True latency: 1 + 0.1 * batch => 190 items fit a 20 ms SLO.
        controller = QuantileRegressionController(
            BatchingConfig(policy="quantile", initial_batch_size=1, additive_increase=8),
            slo_ms=20.0,
        )
        rng = np.random.default_rng(0)
        for _ in range(200):
            batch = controller.current_batch_size()
            latency = 1.0 + 0.1 * batch + rng.uniform(0, 0.3)
            controller.observe(batch, latency)
        assert 140 <= controller.current_batch_size() <= 200

    def test_backs_off_when_over_slo_during_exploration(self):
        controller = QuantileRegressionController(
            BatchingConfig(policy="quantile", initial_batch_size=64), slo_ms=5.0
        )
        controller.observe(64, latency_ms=50.0)
        assert controller.current_batch_size() < 64

    def test_flat_latency_allows_growth(self):
        controller = QuantileRegressionController(
            BatchingConfig(policy="quantile", initial_batch_size=2, additive_increase=2),
            slo_ms=20.0,
        )
        for batch in (2, 4, 6, 8, 10, 12, 14, 16, 18, 20):
            controller.observe(batch, latency_ms=1.0)
        assert controller.current_batch_size() > 16


class TestStaticControllers:
    def test_fixed_ignores_observations(self):
        controller = FixedBatchSizeController(BatchingConfig(policy="fixed", initial_batch_size=32))
        controller.observe(32, latency_ms=1e9)
        assert controller.current_batch_size() == 32

    def test_no_batching_is_always_one(self):
        controller = make_controller(BatchingConfig(policy="none"), slo_ms=20.0)
        controller.observe(1, latency_ms=100.0)
        assert controller.current_batch_size() == 1
        controller.observe(1, latency_ms=1.0)
        assert controller.current_batch_size() == 1


class TestFactory:
    @pytest.mark.parametrize(
        "policy,expected_type",
        [
            ("aimd", AIMDController),
            ("quantile", QuantileRegressionController),
            ("fixed", FixedBatchSizeController),
            ("none", FixedBatchSizeController),
        ],
    )
    def test_factory_builds_correct_type(self, policy, expected_type):
        controller = make_controller(BatchingConfig(policy=policy), slo_ms=20.0)
        assert isinstance(controller, expected_type)


#: Two settings of each field a policy reads.
KNOBS = {
    "initial_batch_size": (1, 8),
    "additive_increase": (1, 4),
    "backoff_fraction": (0.5, 0.9),
    "max_batch_size": (32, 4096),
    "quantile": (0.5, 0.99),
}
ADAPTIVE_KNOBS = ("initial_batch_size", "additive_increase", "backoff_fraction", "max_batch_size")


def size_sequence(config: BatchingConfig) -> list:
    """The sizes a controller picks against one fixed latency model.

    0.1 ms a query plus seeded exponential noise under a 20 ms SLO, and an
    over-SLO batch every 25th, the first while the quantile policy still
    explores.
    """
    controller = make_controller(config, slo_ms=20.0)
    sizes = []
    for step, noise in enumerate(np.random.default_rng(0).exponential(1.0, size=300)):
        size = controller.current_batch_size()
        controller.observe(size, 50.0 if step % 25 == 3 else 1.0 + 0.1 * size + noise)
        sizes.append(size)
    return sizes


@pytest.mark.parametrize(
    "policy,field",
    [("aimd", field) for field in ADAPTIVE_KNOBS]
    + [("quantile", field) for field in ADAPTIVE_KNOBS + ("quantile",)]
    + [("fixed", "initial_batch_size")],
)
def test_every_knob_a_policy_reads_moves_it(policy, field):
    low, high = KNOBS[field]
    assert size_sequence(BatchingConfig(policy=policy, **{field: low})) != size_sequence(
        BatchingConfig(policy=policy, **{field: high})
    )
