"""The no-op container used to measure pure system overhead (Figure 3d).

The paper deploys a container that does no model computation at all so that
the measured latency isolates RPC, serialization and queueing overhead.  The
reproduction's no-op container simply echoes a constant output per input,
with an optional tiny per-item cost to emulate input touching.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.containers.base import ModelContainer


class NoOpContainer(ModelContainer):
    """Returns a constant prediction for every input without model evaluation."""

    def __init__(self, output: Any = 0, touch_inputs: bool = False) -> None:
        self.output = output
        self.touch_inputs = touch_inputs

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        if self.touch_inputs:
            # Touch each input once (a single reduction) to emulate the cost
            # of reading the deserialized payload without any model math.
            for x in inputs:
                if isinstance(x, np.ndarray):
                    float(x.ravel()[:1].sum()) if x.size else 0.0
        return [self.output] * len(inputs)
