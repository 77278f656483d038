"""Batch-size controllers: the common interface plus the static baselines.

A controller answers one question — "how many queries may the next batch
contain?" — and learns from the observed (batch size, latency) pairs that
the dispatcher feeds back after every batch.  The paper evaluates three
strategies (Figure 4): the adaptive AIMD scheme (the default), a quantile-
regression estimator of the P99 latency/batch-size relationship, and the
no-batching baseline.  A fixed-size controller rounds out the set and is
used by the TensorFlow-Serving-like comparator.
"""

from __future__ import annotations


from repro.core.config import BatchingConfig
from repro.core.exceptions import ConfigurationError


class BatchSizeController:
    """Interface for maximum-batch-size control."""

    def __init__(self, slo_ms: float, max_batch_size: int = 4096) -> None:
        if slo_ms <= 0:
            raise ConfigurationError("slo_ms must be positive")
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        self.slo_ms = slo_ms
        self.hard_max_batch_size = max_batch_size

    def current_batch_size(self) -> int:
        """The maximum number of queries the next batch may contain."""
        raise NotImplementedError

    def observe(self, batch_size: int, latency_ms: float) -> None:
        """Report the measured evaluation latency of a dispatched batch."""
        raise NotImplementedError

    def _clamp(self, value: float) -> int:
        return int(max(1, min(self.hard_max_batch_size, value)))


class FixedBatchSizeController(BatchSizeController):
    """Always uses the same maximum batch size (no adaptation).

    This is the TensorFlow-Serving-style behaviour: batch sizes are static,
    hand-tuned offline and encoded into the deployment.
    """

    def __init__(self, batch_size: int, slo_ms: float = 1e9, max_batch_size: int = 4096) -> None:
        super().__init__(slo_ms=slo_ms, max_batch_size=max_batch_size)
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self._batch_size = min(batch_size, max_batch_size)

    def current_batch_size(self) -> int:
        return self._batch_size

    def observe(self, batch_size: int, latency_ms: float) -> None:
        # Static by design: observations are ignored.
        return None


class NoBatchingController(FixedBatchSizeController):
    """Every query is its own batch — the paper's "No Batching" baseline."""

    def __init__(self, slo_ms: float = 1e9) -> None:
        super().__init__(batch_size=1, slo_ms=slo_ms, max_batch_size=1)


def make_controller(config: BatchingConfig, slo_ms: float) -> BatchSizeController:
    """Build the controller described by a :class:`BatchingConfig`."""
    # Imported here to avoid a circular import at module load time.
    from repro.batching.aimd import AIMDController
    from repro.batching.quantile import QuantileRegressionController

    if config.policy == "aimd":
        return AIMDController(
            slo_ms=slo_ms,
            initial_batch_size=config.initial_batch_size,
            additive_increase=config.additive_increase,
            backoff_fraction=config.backoff_fraction,
            max_batch_size=config.max_batch_size,
        )
    if config.policy == "quantile":
        return QuantileRegressionController(
            slo_ms=slo_ms,
            quantile=config.quantile,
            initial_batch_size=config.initial_batch_size,
            additive_increase=config.additive_increase,
            max_batch_size=config.max_batch_size,
        )
    if config.policy == "fixed":
        return FixedBatchSizeController(
            batch_size=config.initial_batch_size,
            slo_ms=slo_ms,
            max_batch_size=config.max_batch_size,
        )
    if config.policy == "none":
        return NoBatchingController(slo_ms=slo_ms)
    raise ConfigurationError(f"unknown batching policy '{config.policy}'")
