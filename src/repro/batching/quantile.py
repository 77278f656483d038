"""Quantile-regression batch-size controller (paper §4.3.1).

The paper observed a stable, roughly linear relationship between batch size
and latency for its model containers (Figure 3) and therefore explored
fitting a quantile regression of the 99th-percentile latency as a function
of batch size, then setting the maximum batch size to the largest value
whose predicted P99 latency still meets the SLO.  The two strategies perform
nearly identically (Figure 4); AIMD remains the default because it is
simpler and self-correcting.

The fit minimises the pinball (quantile) loss for the line
``latency = intercept + slope * batch_size`` exactly, in numpy alone: the
linear program has an optimum on a line through a data point, and through a
fixed point the best slope is a weighted quantile of the slopes to the other
points.  No solver is imported — this module is on the import path of every
ingress and worker process.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.batching.controllers import BatchSizeController
from repro.core.exceptions import ConfigurationError


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


class QuantileRegressionController(BatchSizeController):
    """Sets the max batch size from a P99-latency regression against batch size.

    Until enough observations spanning at least two distinct batch sizes have
    accumulated, the controller behaves like a conservative additive-increase
    explorer; afterwards it solves the quantile regression over a sliding
    window and picks the largest batch size whose predicted quantile latency
    is within the SLO.
    """

    def __init__(
        self,
        slo_ms: float,
        quantile: float = 0.99,
        window: int = 200,
        initial_batch_size: int = 1,
        additive_increase: int = 1,
        refit_interval: int = 10,
        max_batch_size: int = 4096,
    ) -> None:
        super().__init__(slo_ms=slo_ms, max_batch_size=max_batch_size)
        if not 0.0 < quantile < 1.0:
            raise ConfigurationError("quantile must be in (0, 1)")
        if window < 4:
            raise ConfigurationError("window must be >= 4")
        if refit_interval < 1:
            raise ConfigurationError("refit_interval must be >= 1")
        self.quantile = quantile
        self.window = window
        self.additive_increase = additive_increase
        self.refit_interval = refit_interval
        self._observations: Deque[Tuple[int, float]] = deque(maxlen=window)
        self._batch_size = self._clamp(initial_batch_size)
        self._since_refit = 0
        self._last_latency_ms: Optional[float] = None
        self.intercept_: Optional[float] = None
        self.slope_: Optional[float] = None

    def current_batch_size(self) -> int:
        return self._batch_size

    def observe(self, batch_size: int, latency_ms: float) -> None:
        self._observations.append((int(batch_size), float(latency_ms)))
        self._since_refit += 1
        self._last_latency_ms = float(latency_ms)

        distinct_sizes = {size for size, _ in self._observations}
        if len(self._observations) < 8 or len(distinct_sizes) < 2:
            # Exploration phase: grow additively (and back off on SLO misses)
            # until the regression has something to fit.
            if latency_ms > self.slo_ms:
                self._batch_size = max(1, int(self._batch_size * 0.9))
            elif batch_size >= self._batch_size:
                self._batch_size = self._clamp(self._batch_size + self.additive_increase)
            return

        if self._since_refit >= self.refit_interval or latency_ms > self.slo_ms:
            self._refit()
            self._since_refit = 0

    def _refit(self) -> None:
        sizes = np.array([size for size, _ in self._observations], dtype=float)
        latencies = np.array([lat for _, lat in self._observations], dtype=float)
        intercept, slope = fit_quantile_line(sizes, latencies, self.quantile)
        self.intercept_, self.slope_ = intercept, slope
        if slope <= 1e-9:
            # Latency is flat in batch size within the window: allow growth
            # one step beyond the largest size we have tried so far.
            self._batch_size = self._clamp(sizes.max() + self.additive_increase)
            return
        predicted_max = (self.slo_ms - intercept) / slope
        candidate = self._clamp(np.floor(predicted_max))
        if (
            candidate <= self._batch_size
            and self._last_latency_ms is not None
            and self._last_latency_ms <= self.slo_ms
        ):
            # The regression can be pessimistic when the window only contains
            # a narrow range of (noisy) small batch sizes; as long as the most
            # recent batch met the SLO, keep exploring upward so the
            # controller cannot lock itself into tiny batches.
            candidate = self._clamp(self._batch_size + self.additive_increase)
        self._batch_size = candidate
