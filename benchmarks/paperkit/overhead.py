"""A container with controlled extra latency: language overhead.

**Figure 11** compares TensorFlow Serving against Clipper with C++ and
Python model containers; the Python containers pay 15–18% extra per-batch
overhead from the high-level API.  :class:`LanguageOverheadContainer` wraps
any container and adds a configurable per-batch and per-item overhead so
both variants can be expressed.
"""

from __future__ import annotations

import time
from typing import Any, List, Sequence

from repro.containers.base import ModelContainer


def _busy_wait(duration_s: float) -> None:
    """Spin for ``duration_s`` seconds.

    Sleeping would let the event loop's other work hide the overhead, but the
    point of these wrappers is to *consume* container-side time the way real
    interpreter overhead or slow model math does.
    """
    if duration_s <= 0:
        return
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        pass


class LanguageOverheadContainer(ModelContainer):
    """Adds fixed per-batch and per-item overhead to an inner container.

    Parameters
    ----------
    inner:
        The wrapped container doing the real work.
    per_batch_overhead_ms:
        Fixed cost added once per batch (interpreter dispatch, API glue).
    per_item_overhead_us:
        Cost added per input in the batch (per-row conversion overhead).
    """

    def __init__(
        self,
        inner: ModelContainer,
        per_batch_overhead_ms: float = 0.0,
        per_item_overhead_us: float = 0.0,
    ) -> None:
        if per_batch_overhead_ms < 0 or per_item_overhead_us < 0:
            raise ValueError("overheads must be non-negative")
        self.inner = inner
        self.per_batch_overhead_ms = per_batch_overhead_ms
        self.per_item_overhead_us = per_item_overhead_us

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        overhead_s = (
            self.per_batch_overhead_ms / 1000.0
            + len(inputs) * self.per_item_overhead_us / 1e6
        )
        _busy_wait(overhead_s)
        return self.inner.predict_batch(inputs)
