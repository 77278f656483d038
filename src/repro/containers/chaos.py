"""Failure-injection containers for health-monitoring and recovery tests.

The management plane's recovery path needs containers that fail in
controlled, nameable ways — the in-process analogue of ``docker kill`` (or a
flaky host) on a model container:

* :class:`KillableContainer` serves normally until
  :meth:`KillableContainer.kill` is called, after which every batch raises
  and the container reports itself unhealthy, so both the dispatcher's
  passive failure signal and the health monitor's active probes observe the
  death.  A fresh instance built by the deployment's factory is alive again,
  which is exactly what health-driven restart relies on.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.containers.base import ModelContainer


class KillableContainer(ModelContainer):
    """A container that can be killed (and revived) from the outside."""

    framework = "chaos"

    def __init__(self, output: Any = 0, inner: Optional[ModelContainer] = None) -> None:
        self.output = output
        self._inner = inner
        self._alive = True
        self.batches_served = 0

    def kill(self) -> None:
        """Simulate the container process dying."""
        self._alive = False

    def revive(self) -> None:
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def healthy(self) -> bool:
        return self._alive

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        if not self._alive:
            raise RuntimeError("container was killed")
        self.batches_served += 1
        if self._inner is not None:
            return self._inner.predict_batch(inputs)
        return [self.output] * len(inputs)


class TrackingFactory:
    """Container factory that remembers every instance it builds.

    Replicas own their containers, so a test or demo that wants to kill "the
    container behind replica 2" needs a handle on the instances the factory
    produced.  Restarted replicas call the factory again, so ``instances``
    also shows how many rebuilds recovery performed.
    """

    def __init__(self, factory: Callable[[], ModelContainer]) -> None:
        self._factory = factory
        self.instances: List[ModelContainer] = []

    def __call__(self) -> ModelContainer:
        container = self._factory()
        self.instances.append(container)
        return container
