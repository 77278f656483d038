"""Container-side RPC server: receives batches, evaluates the model, replies."""

from __future__ import annotations

import asyncio
from typing import Any, Optional, Tuple

from repro.core import clock
from repro.core.exceptions import RpcError, SerializationError
from repro.rpc.protocol import MessageType, message_type, predict_reply
from repro.rpc.transport import Transport


#: Executor evaluations in a row that must compute for less than the
#: measured executor hop before a container is called on the event loop.
INLINE_STREAK = 8
#: Weight of a new sample in the executor hop's moving average.
HOP_EWMA_WEIGHT = 0.125


class ContainerRpcServer:
    """Serves one model container over one transport, or by :meth:`call`.

    The server loop mirrors the paper's container runtime: it takes the next
    framed request, evaluates the container's ``predict_batch`` on the
    decoded inputs, and replies with the aligned outputs and the measured
    container-side latency.  A container in the caller's process has no
    transport: its messages arrive through :meth:`call`, which runs the same
    per-message handler.

    A container may block or compute for long, so it starts out in the
    default thread-pool executor, where it cannot stall the event loop.  Each
    executor evaluation is timed twice: inside the thread (the model's
    compute) and on the loop around it; the difference is the hop.  After
    :data:`INLINE_STREAK` evaluations in a row that computed for less than
    the hop's moving average, the container is called on the loop: for that
    model the hand-off cost more than the model.  An inline call that takes
    longer than the estimate sends it back to the executor, so a model that
    turns slow holds the loop for one batch.

    Evaluation is strictly serial and in arrival order — containers are
    single-threaded, and in-order responses are what lets the client map
    results back to request ids cheaply.  A pipelining client's next frame
    waits in the transport while the current one evaluates; its deadline
    budgets count from its arrival, which the transport stamps.
    """

    def __init__(self, container, transport: Optional[Transport] = None) -> None:
        self._container = container
        self._transport = transport
        self._task: Optional[asyncio.Task] = None
        self._draining = False
        # Held while a message is handled and answered, however it came.
        self._turn = asyncio.Lock()
        # The measured inline rule: hop estimate (s), cheap streak, verdict.
        self._hop_s: Optional[float] = None
        self._cheap = 0
        self._inline = False

    def start(self) -> None:
        """Start the serving loop as a background task."""
        self._task = asyncio.get_running_loop().create_task(self.serve_forever())

    async def serve_forever(self) -> None:
        """Process requests until the transport closes.

        Whatever ends the loop (the peer hanging up, a frame that cannot be
        decoded, a reply that cannot be sent, a drain) the transport is
        closed on the way out, so the client fails what it has pending at
        once instead of waiting out its timeout on a connection nobody reads.
        """
        transport = self._transport
        try:
            while True:
                try:
                    payload, received = await transport.recv_stamped()
                except RpcError:
                    return
                if self._draining:
                    # Stop accepting: a frame taken after the drain began is
                    # deliberately dropped unanswered.
                    return
                try:
                    async with self._turn:
                        reply = await self._handle(payload, received)
                        try:
                            await transport.send(reply)
                        except SerializationError as exc:
                            # The codec refused the reply before a byte of it
                            # was written: the batch fails, the lane goes on.
                            error = f"SerializationError: {exc}"
                            await transport.send({**reply, "outputs": [], "error": error})
                except RpcError:
                    # A message a server does not take, or an unsendable reply.
                    return
        finally:
            await transport.close()

    async def call(self, message: dict) -> dict:
        """The reply to ``message``, by call: the handler the serving loop runs
        per frame, one message at a time in call order (a batch or a heartbeat
        waits for the one being evaluated)."""
        received = clock.now()
        async with self._turn:
            return await self._handle(message, received)

    async def _handle(self, payload: dict, received: float) -> dict:
        """The reply to one decoded message (heartbeat or predict)."""
        kind = message_type(payload)
        if kind == MessageType.HEARTBEAT:
            # The heartbeat reply doubles as a health probe: it carries
            # the container's own liveness verdict so the management
            # plane's HealthMonitor can distinguish "transport is up but
            # the model is sick" from plain transport liveness.
            try:
                healthy = bool(self._container.healthy())
            except Exception:
                healthy = False
            return {
                "type": int(MessageType.HEARTBEAT_RESPONSE),
                "request_id": int(payload["request_id"]),
                "healthy": healthy,
            }
        if kind != MessageType.PREDICT:
            raise SerializationError(f"a container server takes no {kind.name} message")
        return await self._evaluate(payload, received)

    async def _evaluate(self, payload: dict, received: float) -> dict:
        """The reply to one PREDICT payload (see :func:`predict_request`)."""
        request_id = int(payload["request_id"])
        inputs = payload["inputs"]
        start = clock.now()
        skipped: tuple = ()
        budgets = payload.get("budgets_ms")
        if budgets:
            # Deadline propagation: an entry whose budget (ms left when sent,
            # ``inf`` = none) ran out since the request arrived is answered as
            # ``skipped`` instead of computing a result nobody waits for.  The
            # earliest budget decides, once, whether any entry is looked at; a
            # fully-expired batch skips the container call entirely.
            elapsed_ms = (start - received) * 1000.0
            if min(budgets) <= elapsed_ms:
                skipped = tuple(
                    i for i, budget in enumerate(budgets[: len(inputs)])
                    if budget <= elapsed_ms
                )
                expired = set(skipped)
                inputs = [x for i, x in enumerate(inputs) if i not in expired]
        error = None
        try:
            if not inputs:
                outputs: list = []
            elif self._inline:
                outputs = list(self._call_inline(inputs))
            else:
                outputs = list(await self._call_in_executor(inputs))
        except Exception as exc:  # container failures must not kill the server
            outputs, error = [], f"{type(exc).__name__}: {exc}"
        end = clock.now()
        # A batch with traced queries asks for the evaluation window: same-host
        # dispatchers turn it into a ``container.eval`` span nested inside
        # the client's ``rpc.wait`` leg.
        window = (start, end) if payload.get("stamp") else None
        return predict_reply(
            request_id, outputs, error, (end - start) * 1000.0, window, skipped
        )

    def _call_inline(self, inputs: list) -> Any:
        """Call the container on the loop; back to the executor if it was slow."""
        start = clock.now()
        try:
            return self._container.predict_batch(inputs)
        finally:
            if clock.now() - start > self._hop_s:
                self._inline = False
                self._cheap = 0

    async def _call_in_executor(self, inputs: list) -> Any:
        """Evaluate in an executor thread, measuring the compute and the hop."""
        start = clock.now()
        outputs, compute_s = await asyncio.get_running_loop().run_in_executor(
            None, self._timed_predict, inputs
        )
        hop_s = clock.now() - start - compute_s
        if self._hop_s is None:
            self._hop_s = hop_s
        else:
            self._hop_s += HOP_EWMA_WEIGHT * (hop_s - self._hop_s)
        self._cheap = self._cheap + 1 if compute_s < self._hop_s else 0
        self._inline = self._cheap >= INLINE_STREAK
        return outputs

    def _timed_predict(self, inputs: list) -> Tuple[Any, float]:
        start = clock.now()
        outputs = self._container.predict_batch(inputs)
        return outputs, clock.now() - start

    async def drain(self, timeout_s: float = 5.0) -> None:
        """Graceful shutdown: finish the in-flight request, then stop.

        Sets the draining flag so the serving loop accepts no further
        requests, waits (bounded by ``timeout_s``) for the request currently
        being evaluated — if any — to be answered, then closes the transport
        and cancels the loop.  A request that outlives the timeout is cut
        off by the ordinary :meth:`stop` path.
        """
        self._draining = True
        try:
            await asyncio.wait_for(self._turn.acquire(), timeout=timeout_s)
        except asyncio.TimeoutError:
            pass
        await self.stop()

    async def stop(self) -> None:
        """Close the transport and cancel the serving loop."""
        await self._transport.close()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, RpcError):
                pass
            self._task = None
