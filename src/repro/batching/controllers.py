"""Batch-size controllers (paper §4.3.1, Figure 4).

A controller answers one question — "how many queries may the next batch
contain?" — and learns from the (batch size, latency) pair the dispatcher
feeds back after every batch.  The paper evaluates three strategies: AIMD
(the default), a quantile regression of P99 latency on batch size, and no
batching, a fixed size of one; a fixed size is also the
TensorFlow-Serving-like comparator.  The quantile policy explores as AIMD
does until it has a line to fit; the two perform nearly identically, and
AIMD stays the default because it is simpler and self-correcting.

The fit minimises the pinball (quantile) loss for the line
``latency = intercept + slope * batch_size`` exactly, in numpy alone: the
linear program has an optimum on a line through a data point, and through a
fixed point the best slope is a weighted quantile of the slopes to the other
points.  No solver is imported — this module is on the import path of every
ingress process.

Every controller is built from a :class:`BatchingConfig` and an SLO, which
``BatchingConfig`` and ``ClipperConfig`` have already range-checked.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple, Union

import numpy as np

from repro.core.config import BatchingConfig

#: Observations the regression is fitted over (the most recent).
WINDOW = 200
#: Observations between two refits outside the exploration phase.
REFIT_INTERVAL = 10


class FixedBatchSizeController:
    """Always uses the same maximum batch size (no adaptation).

    This is the TensorFlow-Serving-style behaviour: batch sizes are static,
    hand-tuned offline and encoded into the deployment.  The size is the
    config's ``initial_batch_size``, or one under the ``"none"`` policy —
    the paper's "No Batching" baseline, where every query is its own batch.
    """

    def __init__(self, config: BatchingConfig) -> None:
        self._batch_size = 1 if config.policy == "none" else config.initial_batch_size

    def current_batch_size(self) -> int:
        return self._batch_size

    def observe(self, batch_size: int, latency_ms: float) -> None:
        # Static by design: observations are ignored.
        return None


class AIMDController:
    """Additive-increase, multiplicative-decrease batch-size control.

    The size grows by ``additive_increase`` after every under-SLO batch and
    is multiplied by ``backoff_fraction`` after every batch over the SLO: a
    gentle 10% in the paper, not TCP's halving, because a container's best
    batch size barely fluctuates.  It is kept fractional, within
    ``[1, max_batch_size]``.
    """

    def __init__(self, config: BatchingConfig, slo_ms: float) -> None:
        self.slo_ms = slo_ms
        self.additive_increase = config.additive_increase
        self.backoff_fraction = config.backoff_fraction
        self.max_batch_size = config.max_batch_size
        self._batch_size = float(config.initial_batch_size)
        self.increases = 0
        self.backoffs = 0

    def current_batch_size(self) -> int:
        return int(self._batch_size)

    def observe(self, batch_size: int, latency_ms: float) -> None:
        """Additively grow under the SLO, multiplicatively back off above it.

        Growth is only applied when the dispatched batch actually used the
        full allowance: a small batch finishing quickly says nothing about
        whether a larger batch would still meet the SLO.
        """
        if latency_ms > self.slo_ms:
            self._batch_size = max(1.0, self._batch_size * self.backoff_fraction)
            self.backoffs += 1
        elif batch_size >= self.current_batch_size():
            self._batch_size = min(
                float(self.max_batch_size),
                self._batch_size + self.additive_increase,
            )
            self.increases += 1


#: What a dispatcher asks for its next batch size and tells each batch's latency.
BatchSizeController = Union[FixedBatchSizeController, AIMDController]


def fit_quantile_line(
    batch_sizes: np.ndarray, latencies_ms: np.ndarray, quantile: float = 0.99
) -> Tuple[float, float]:
    """Fit ``latency ≈ intercept + slope * batch_size`` at the given quantile.

    Returns ``(intercept, slope)``, a minimiser of the pinball loss — the
    optimum of the standard LP formulation of quantile regression (minimise
    ``q·u + (1-q)·v`` subject to ``y - (a + b·x) = u - v`` with ``u, v ≥ 0``).
    Some optimal line passes through a data point.  For the lines through
    point ``k`` the loss is ``Σ |x_i - x_k| · ρ_τ(s_i - b)`` in the slope
    ``b`` alone, where ``s_i`` is the slope from ``k`` to ``i`` and ``τ`` is
    ``q`` for points right of ``k`` and ``1 - q`` for points left of it; its
    minimiser is the weighted quantile of the ``s_i``.  All ``n`` pivots are
    solved in one ``n × n`` pass and the line with the least loss is kept.
    """
    x = np.asarray(batch_sizes, dtype=float).ravel()
    y = np.asarray(latencies_ms, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("batch_sizes and latencies_ms must align")
    if x.shape[0] < 2:
        raise ValueError("at least two observations are required")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")

    dx = x - x[:, None]  # row k: offsets from pivot k
    weights = np.abs(dx)
    beside = weights > 0
    if not beside.any():
        # One batch size only: every slope fits alike; the line is the
        # quantile of the latencies.
        return float(np.sort(y)[int(np.ceil(quantile * len(y))) - 1]), 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # Points sharing the pivot's batch size add a constant; they sort last.
        slopes = np.where(beside, (y - y[:, None]) / dx, np.inf)
    order = np.argsort(slopes, axis=1)
    order += np.arange(0, order.size, len(x))[:, None]  # indices into the flat n × n
    slopes = np.take(slopes, order)
    cumulative = np.cumsum(np.take(weights, order), axis=1)
    right = np.maximum(dx, 0.0).sum(axis=1)
    target = quantile * right + (1.0 - quantile) * (weights.sum(axis=1) - right)
    # The first slope whose cumulative weight reaches the target, kept among
    # the finite ones against rounding in the sums.
    index = np.minimum(
        np.sum(cumulative < target[:, None], axis=1), beside.sum(axis=1) - 1
    )
    slope_k = slopes[np.arange(len(x)), index]
    intercept_k = y - slope_k * x
    residuals = y - (intercept_k[:, None] + slope_k[:, None] * x)
    # ρ_q(r) = q·r - min(r, 0)
    losses = quantile * residuals.sum(axis=1) - np.minimum(residuals, 0.0).sum(axis=1)
    best = int(np.argmin(losses))
    return float(intercept_k[best]), float(slope_k[best])


class QuantileRegressionController(AIMDController):
    """Sets the max batch size from a P99-latency regression against batch size.

    Until enough observations spanning at least two distinct batch sizes have
    accumulated, the controller explores as :class:`AIMDController` does;
    afterwards it solves the quantile regression over a sliding window and
    picks the largest batch size whose predicted quantile latency is within
    the SLO: the last :data:`WINDOW` observations, refitted every
    :data:`REFIT_INTERVAL` of them and after every SLO miss.
    """

    def __init__(self, config: BatchingConfig, slo_ms: float) -> None:
        super().__init__(config, slo_ms)
        self.quantile = config.quantile
        self._observations: Deque[Tuple[int, float]] = deque(maxlen=WINDOW)
        self._since_refit = 0

    def observe(self, batch_size: int, latency_ms: float) -> None:
        self._observations.append((int(batch_size), float(latency_ms)))
        self._since_refit += 1
        distinct_sizes = {size for size, _ in self._observations}
        if len(self._observations) < 8 or len(distinct_sizes) < 2:
            # Exploration phase: the regression has nothing to fit yet.
            super().observe(batch_size, latency_ms)
        elif self._since_refit >= REFIT_INTERVAL or latency_ms > self.slo_ms:
            self._refit(latency_ms)
            self._since_refit = 0

    def _refit(self, latency_ms: float) -> None:
        sizes, latencies = np.array(self._observations, dtype=float).T
        intercept, slope = fit_quantile_line(sizes, latencies, self.quantile)
        if slope <= 1e-9:
            # Latency is flat in batch size within the window: allow growth
            # one step beyond the largest size we have tried so far.
            candidate = sizes.max() + self.additive_increase
        else:
            candidate = np.floor((self.slo_ms - intercept) / slope)
            current = self.current_batch_size()
            if candidate <= current and latency_ms <= self.slo_ms:
                # The regression can be pessimistic when the window only
                # contains a narrow range of (noisy) small batch sizes; as
                # long as the most recent batch met the SLO, keep exploring
                # upward so the controller cannot lock itself into tiny
                # batches.
                candidate = current + self.additive_increase
        self._batch_size = float(max(1, min(self.max_batch_size, candidate)))


def make_controller(config: BatchingConfig, slo_ms: float) -> BatchSizeController:
    """Build the controller a :class:`BatchingConfig` names, for an SLO."""
    if config.policy == "aimd":
        return AIMDController(config, slo_ms)
    if config.policy == "quantile":
        return QuantileRegressionController(config, slo_ms)
    return FixedBatchSizeController(config)
