"""The model container interface — Clipper's "narrow waist".

Listing 1 of the paper defines the entire contract a model must satisfy to
be served by Clipper::

    interface Predictor<X, Y> {
        List<List<Y>> pred_batch(List<X> inputs);
    }

Here :class:`ModelContainer` is that interface: implement ``predict_batch``
(and nothing else) and the model can be deployed behind caching, adaptive
batching, replication and the selection layer.  Containers are stateless
after construction — all model state is supplied when the container is
built, mirroring the paper's statement that "the container itself is
stateless after initialization".
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence


class ModelContainer:
    """Base class for model containers: subclasses implement :meth:`predict_batch`."""

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        """Evaluate the model on a batch of inputs.

        Must return exactly one output per input, in order.  Raising an
        exception marks the whole batch as failed; the serving engine
        translates that into per-query errors without crashing.
        """
        raise NotImplementedError

    def healthy(self) -> bool:
        """Liveness check used by the container runtime; override if needed."""
        return True


class FunctionContainer(ModelContainer):
    """Adapts a plain ``f(inputs) -> outputs`` batch function into a container.

    The cheapest way to deploy custom logic: the paper notes most container
    implementations are only a few lines of code, and this is the Python
    equivalent.
    """

    def __init__(self, fn: Callable[[Sequence[Any]], List[Any]]) -> None:
        if not callable(fn):
            raise TypeError("fn must be callable")
        self._fn = fn

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        outputs = self._fn(inputs)
        outputs = list(outputs)
        if len(outputs) != len(inputs):
            raise ValueError(
                f"batch function returned {len(outputs)} outputs for "
                f"{len(inputs)} inputs"
            )
        return outputs
