"""Synthetic load container for multi-process scaling benchmarks.

The cluster benchmark needs a model whose per-worker capacity is fixed, so
throughput grows only when more worker daemons join the fleet.
:class:`DeviceBoundContainer` models the paper's deployment shape — each
model container has exclusive use of one accelerator per worker — by
holding a process-wide "device" lock while the batch evaluates off-CPU.
Capacity is bounded per worker process without occupying a host core, so
cluster scaling stays measurable even on single-core CI machines where
CPU-spinning workers would just timeshare the same core.
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Sequence

from repro.containers.base import ModelContainer

#: One simulated accelerator per worker process: batch evaluation holds this
#: lock, so replicas co-located on a worker share its capacity while replicas
#: on different workers evaluate truly in parallel.
_DEVICE_LOCK = threading.Lock()


class DeviceBoundContainer(ModelContainer):
    """Occupies the process's simulated accelerator for ``ms_per_input``.

    ``predict_batch`` sleeps under :data:`_DEVICE_LOCK` instead of spinning,
    so a worker's host core stays free while its "device" is busy.  One
    worker therefore serves at most ``1000 / ms_per_input`` inputs per
    second no matter how many replicas it hosts or how fast its CPU is.
    """

    def __init__(self, ms_per_input: float = 1.0, output: Any = 0) -> None:
        if ms_per_input <= 0:
            raise ValueError("ms_per_input must be > 0")
        self.ms_per_input = ms_per_input
        self.output = output

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        with _DEVICE_LOCK:
            time.sleep((self.ms_per_input / 1000.0) * len(inputs))
        return [self.output] * len(inputs)
