"""Model containers defined by the benchmark itself.

``open_slo`` needs a model whose cost is *off-CPU* and dominated by a fixed
per-batch term, so that capacity depends on the batch size the adaptive
batching layer reaches and not on how fast this host's cores are: about
490 q/s at batch 1 and about 8.9k q/s at batch 32.  Only batching can carry
the workload's 3 000 q/s.
"""

from __future__ import annotations

import time
from typing import Any, List, Sequence

from repro.containers.base import ModelContainer

#: Fixed cost of one batch evaluation, seconds.
BATCH_COST_S = 0.002
#: Additional cost of each input in a batch, seconds.
INPUT_COST_S = 0.00005


class SleepContainer(ModelContainer):
    """Sleeps ``BATCH_COST_S + INPUT_COST_S * len(batch)``, answers a constant.

    Runs in the replica's executor thread, where ``time.sleep`` releases the
    interpreter lock: the model occupies wall time, not the event loop.
    """

    framework = "sleep"

    def __init__(self, output: Any = 1) -> None:
        self.output = output

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        time.sleep(BATCH_COST_S + INPUT_COST_S * len(inputs))
        return [self.output] * len(inputs)
