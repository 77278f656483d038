"""The systems Fig. 11 measures, each loaded closed-loop by :func:`~paperkit.load.drive`.

* :func:`run_clipper_serving` — one container behind the full Clipper stack
  (Figure 11).
* :func:`run_tfserving_baseline` — the same load against
  :class:`TFServingLikeServer`, the TensorFlow-Serving-like comparator of
  Figure 11.

The paper characterises TensorFlow Serving by three design choices that
differ from Clipper:

1. **Tightly coupled**: the model runs in the same process as the serving
   frontend, so there is no container RPC or serialization overhead.
2. **Static batching**: batch sizes are hand-tuned offline and fixed; a
   purely timeout-based mechanism avoids starvation under light load, and
   there is no latency-SLO awareness.
3. **Single model**: no selection layer, no feedback, no ensembles.

:class:`TFServingLikeServer` is exactly that: one model evaluated in-process
behind one :class:`~repro.batching.queue.BatchingQueue` drained at a fixed
batch size with a fixed wait — the queue's delayed-batching mode, with no
controller.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Sequence

from paperkit.load import LoadResult, drive
from repro.batching.queue import BatchingQueue, PendingQuery
from repro.containers.base import ModelContainer
from repro.core import clock
from repro.core.clipper import Clipper
from repro.core.config import BatchingConfig, ClipperConfig, ModelDeployment
from repro.core.exceptions import ClipperError
from repro.core.types import Query


class TFServingLikeServer:
    """Single-model serving with a static batch size and timeout dispatch.

    Parameters
    ----------
    container:
        The model container evaluated in-process (called directly — no RPC),
        in the default thread pool so the event loop keeps taking queries.
    batch_size:
        Static, hand-tuned batch size (the paper uses 512/128/16 for its
        MNIST/CIFAR/ImageNet TensorFlow models).
    batch_timeout_ms:
        How long a batch waits to fill before it is sent partial (the
        starvation-avoidance timeout).
    """

    def __init__(
        self,
        container: ModelContainer,
        batch_size: int = 32,
        batch_timeout_ms: float = 2.0,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_timeout_ms < 0:
            raise ValueError("batch_timeout_ms must be non-negative")
        self.container = container
        self.batch_size = batch_size
        self.batch_timeout_ms = batch_timeout_ms
        self.batch_sizes: List[int] = []
        self._queue = BatchingQueue("tf-serving")
        self._task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        """Start the batching dispatcher."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Take no more queries, answer every queued one, then stop."""
        if self._task is not None:
            self._queue.close()
            await self._task

    async def predict(self, x: Any) -> Any:
        """Render a prediction for one input."""
        if self._task is None or self._queue.closed:
            raise ClipperError("TFServingLikeServer is not serving")
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(PendingQuery(input=x, future=future, enqueue_time=clock.now()))
        return await future

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        while not (queue.closed and queue.qsize() == 0):
            batch = await queue.get_batch(self.batch_size, self.batch_timeout_ms)
            if not batch:
                continue
            try:
                outputs = await loop.run_in_executor(
                    None, self.container.predict_batch, [item.input for item in batch]
                )
            except Exception as exc:  # the failure is the batch's answer
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            self.batch_sizes.append(len(batch))
            for item, output in zip(batch, outputs):
                if not item.future.done():
                    item.future.set_result(output)


def _closed_loop(system, predict, inputs: Sequence[Any], num_queries: int, users: int):
    """Start ``system``, let ``users`` closed-loop users send ``predict``
    ``num_queries`` queries, cycling through ``inputs``, and stop it."""

    async def run() -> LoadResult:
        await system.start()
        try:
            start = asyncio.get_running_loop().time()
            answers = await drive(
                lambda i: predict(inputs[i % len(inputs)]), users=users, count=num_queries,
                fails=Exception,  # a failed query is one of the row's errors
            )
            return LoadResult.of(answers, start)
        finally:
            await system.stop()

    return asyncio.run(run())


def run_clipper_serving(
    container_factory: Callable[[], ModelContainer],
    inputs: Sequence[Any],
    *,
    label: str = "clipper",
    num_queries: int = 500,
    latency_slo_ms: float = 20.0,
    batching: Optional[BatchingConfig] = None,
    concurrency: int = 32,
    serialize_rpc: bool = True,
) -> LoadResult:
    """Serve one model through the full Clipper stack and measure it.

    The application uses the ``single`` policy with the prediction cache and
    straggler mitigation off, so repeated benchmark inputs measure model
    evaluation rather than cache hits or default answers.
    """
    config = ClipperConfig(
        app_name=f"bench-{label}",
        latency_slo_ms=latency_slo_ms,
        selection_policy="single",
        cache_size=0,
        straggler_mitigation=False,
    )
    clipper = Clipper(config)
    clipper.deploy_model(
        ModelDeployment(
            name="model",
            container_factory=container_factory,
            batching=batching or BatchingConfig(),
            serialize_rpc=serialize_rpc,
        )
    )

    def predict(x: Any):
        return clipper.predict(Query(app_name=config.app_name, input=x))

    result = _closed_loop(clipper, predict, inputs, num_queries, concurrency)
    batch_sizes = clipper.metrics.histogram("model.model:1.batch_size")
    result.label = label
    result.mean_batch_size = batch_sizes.mean() if batch_sizes.count else 0.0
    return result


def run_tfserving_baseline(
    container: ModelContainer,
    inputs: Sequence[Any],
    *,
    label: str = "tf-serving",
    num_queries: int = 500,
    batch_size: int = 32,
    concurrency: int = 32,
) -> LoadResult:
    """Serve one model through the TF-Serving-like baseline and measure it."""
    server = TFServingLikeServer(container, batch_size=batch_size)
    result = _closed_loop(server, server.predict, inputs, num_queries, concurrency)
    result.label = label
    if server.batch_sizes:
        result.mean_batch_size = sum(server.batch_sizes) / len(server.batch_sizes)
    return result
