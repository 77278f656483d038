"""The no-op container used to measure pure system overhead (Figure 3d).

The paper deploys a container that does no model computation at all so that
the measured latency isolates RPC, serialization and queueing overhead.  The
reproduction's no-op container simply echoes a constant output per input.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.containers.base import ModelContainer


class NoOpContainer(ModelContainer):
    """Returns a constant prediction for every input without model evaluation."""

    def __init__(self, output: Any = 0) -> None:
        self.output = output

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        return [self.output] * len(inputs)
