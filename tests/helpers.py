"""Importable helpers shared across test modules.

Test files import :func:`run_async` from here (``from helpers import
run_async``) rather than from ``conftest`` — conftest modules are loaded by
pytest under a single shared module name, so importing them directly breaks
when another rootdir conftest (e.g. ``benchmarks/conftest.py``) is imported
first.

The container doubles below (:class:`SimulatedLatencyContainer`,
:class:`FlakyContainer`, :class:`CorruptingContainer`), the flash-crowd
schedule :class:`BurstyArrivals` and the in-memory RPC pair
:func:`queue_pair` are used by tests alone; containers that a benchmark, an
example or a script also builds stay in :mod:`repro.containers`.  Nothing
here imports :mod:`paperkit`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.containers.base import ModelContainer
from repro.core.exceptions import RpcError
from repro.rpc.serialization import deserialize, serialize


async def wait_until(predicate, timeout_s=5.0, interval_s=0.01):
    """Poll ``predicate`` until it holds or ``timeout_s`` passes; its last value."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval_s)
    return predicate()


def run_async(coroutine):
    """Run a coroutine to completion on a fresh event loop.

    pytest-asyncio is not available in this environment, so async code under
    test is driven through this helper from synchronous test functions.
    """
    return asyncio.run(coroutine)


class SimulatedLatencyContainer(ModelContainer):
    """Adds controlled artificial latency (with a straggler tail) to a container.

    Latency per batch is ``base_latency_ms + per_item_latency_ms * len(batch)``
    plus, with probability ``straggler_probability``, an extra delay drawn
    uniformly from ``[straggler_extra_ms/2, straggler_extra_ms]``.  When no
    inner container is given, the output for every input is ``default_output``.
    """

    framework = "simulated"

    def __init__(
        self,
        inner: Optional[ModelContainer] = None,
        base_latency_ms: float = 1.0,
        per_item_latency_ms: float = 0.0,
        straggler_probability: float = 0.0,
        straggler_extra_ms: float = 0.0,
        default_output: Any = 0,
        random_state: Optional[int] = None,
    ) -> None:
        if base_latency_ms < 0 or per_item_latency_ms < 0 or straggler_extra_ms < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= straggler_probability <= 1.0:
            raise ValueError("straggler_probability must be in [0, 1]")
        self.inner = inner
        self.base_latency_ms = base_latency_ms
        self.per_item_latency_ms = per_item_latency_ms
        self.straggler_probability = straggler_probability
        self.straggler_extra_ms = straggler_extra_ms
        self.default_output = default_output
        self._rng = np.random.default_rng(random_state)

    def sample_delay_ms(self, batch_size: int) -> float:
        """Sample the artificial delay for one batch of the given size."""
        delay = self.base_latency_ms + self.per_item_latency_ms * batch_size
        if (
            self.straggler_probability > 0
            and self._rng.random() < self.straggler_probability
        ):
            delay += self._rng.uniform(
                self.straggler_extra_ms / 2.0, self.straggler_extra_ms
            )
        return delay

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        delay_ms = self.sample_delay_ms(len(inputs))
        time.sleep(delay_ms / 1000.0)
        if self.inner is not None:
            return self.inner.predict_batch(inputs)
        return [self.default_output] * len(inputs)


class FlakyContainer(ModelContainer):
    """A container that dies after serving a fixed number of predictions.

    Counts *individual predictions* (not batches), so the fault point is
    deterministic under adaptive batching.  The batch containing the Nth
    prediction still succeeds; every batch after it raises, and the
    container reports itself unhealthy — a replacement instance from the
    factory starts its own countdown.
    """

    framework = "chaos"

    def __init__(self, healthy_predictions: int, output: Any = 0) -> None:
        if healthy_predictions < 0:
            raise ValueError("healthy_predictions must be non-negative")
        self.healthy_predictions = healthy_predictions
        self.output = output
        self.predictions_served = 0

    def healthy(self) -> bool:
        return self.predictions_served < self.healthy_predictions

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        if self.predictions_served >= self.healthy_predictions:
            raise RuntimeError(
                f"flaky container failed after {self.predictions_served} predictions"
            )
        self.predictions_served += len(inputs)
        return [self.output] * len(inputs)


class CorruptingContainer(ModelContainer):
    """A container that answers every batch with a corrupted payload.

    ``mode="garbage"`` returns the wrong output values (the container stays
    protocol-correct but semantically broken — the damage only shows up in
    application metrics); ``mode="short"`` returns fewer outputs than
    inputs, a contract violation the model abstraction layer must surface
    as a failed batch rather than misalign outputs across the batch.
    Corruption starts after ``healthy_predictions`` clean ones.
    """

    framework = "chaos"

    def __init__(
        self,
        output: Any = 0,
        corrupt_output: Any = "corrupted",
        mode: str = "garbage",
        healthy_predictions: int = 0,
    ) -> None:
        if mode not in ("garbage", "short"):
            raise ValueError(f"unknown corruption mode '{mode}'")
        self.output = output
        self.corrupt_output = corrupt_output
        self.mode = mode
        self.healthy_predictions = healthy_predictions
        self.predictions_served = 0
        self.corrupted_batches = 0

    def healthy(self) -> bool:
        return True  # the whole point: probes cannot tell it is sick

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        corrupting = self.predictions_served >= self.healthy_predictions
        self.predictions_served += len(inputs)
        if not corrupting:
            return [self.output] * len(inputs)
        self.corrupted_batches += 1
        if self.mode == "short":
            return [self.output] * (len(inputs) - 1)
        return [self.corrupt_output] * len(inputs)


class BurstyArrivals:
    """Two-state (on/off) bursty arrivals, deterministic under a seed.

    Alternates between a burst state, where queries arrive at ``burst_qps``,
    and an idle state at ``idle_qps``; state dwell lengths (in queries) are
    geometric with the configured means.  Models a flash crowd such as a
    breaking-news traffic spike.
    """

    def __init__(
        self,
        burst_qps: float,
        idle_qps: float,
        mean_burst_length: int = 50,
        mean_idle_length: int = 50,
        random_state: Optional[int] = None,
    ) -> None:
        if burst_qps <= 0 or idle_qps <= 0:
            raise ValueError("rates must be positive")
        if mean_burst_length < 1 or mean_idle_length < 1:
            raise ValueError("mean state lengths must be >= 1")
        self.burst_qps = burst_qps
        self.idle_qps = idle_qps
        self.mean_burst_length = mean_burst_length
        self.mean_idle_length = mean_idle_length
        self._rng = np.random.default_rng(random_state)

    def gaps(self, n: int) -> Iterator[float]:
        """Yield ``n`` inter-arrival gaps (seconds)."""
        emitted = 0
        in_burst = True
        while emitted < n:
            mean_length = self.mean_burst_length if in_burst else self.mean_idle_length
            length = int(self._rng.geometric(1.0 / mean_length))
            length = min(length, n - emitted)
            rate = self.burst_qps if in_burst else self.idle_qps
            for gap in self._rng.exponential(1.0 / rate, size=length):
                yield float(gap)
            emitted += length
            in_burst = not in_burst

    def arrival_times(self, n: int) -> np.ndarray:
        """Times (s) of ``n`` arrivals, counted from 0."""
        return np.cumsum(np.fromiter(self.gaps(n), dtype=float, count=n))


class QueueTransport:
    """One end of an in-memory RPC transport pair (see :func:`queue_pair`).

    Each message crosses an ``asyncio.Queue`` as an encoded frame, so an
    ``RpcClient`` and a ``ContainerRpcServer`` wired to a pair see what a
    socket would deliver, without one.  ``close`` wakes the peer's ``recv``.
    """

    def __init__(self, outgoing: asyncio.Queue, incoming: asyncio.Queue) -> None:
        self._outgoing = outgoing
        self._incoming = incoming
        self.closed = False

    async def send(self, payload: dict) -> None:
        if self.closed:
            raise RpcError("transport is closed")
        await self._outgoing.put(serialize(payload))

    async def recv(self) -> dict:
        if self.closed:
            raise RpcError("transport is closed")
        frame = await self._incoming.get()
        if frame is None:
            self.closed = True
            raise RpcError("transport closed by peer")
        return deserialize(frame)

    async def close(self) -> None:
        if not self.closed:
            self.closed = True
            await self._outgoing.put(None)


def queue_pair() -> Tuple[QueueTransport, QueueTransport]:
    """A connected ``(client_side, server_side)`` pair of queue transports."""
    to_server: asyncio.Queue = asyncio.Queue()
    to_client: asyncio.Queue = asyncio.Queue()
    return QueueTransport(to_server, to_client), QueueTransport(to_client, to_server)
