"""Container-side RPC server: receives batches, evaluates the model, replies."""

from __future__ import annotations

import asyncio
import time
from typing import Optional, Tuple

from repro.core.exceptions import RpcError, SerializationError
from repro.rpc.protocol import MessageType, RpcResponse, message_type
from repro.rpc.transport import Transport


class ContainerRpcServer:
    """Serves one model container over one transport, or by :meth:`call`.

    The server loop mirrors the paper's container runtime: it blocks on the
    next framed request, evaluates the container's ``predict_batch`` on the
    decoded inputs in a thread-pool executor (so a CPU-heavy model does not
    stall the event loop), and replies with the aligned outputs and the
    measured container-side latency.  A container in the caller's process
    has no transport: its messages arrive through :meth:`call`, which runs
    the same per-message handler.

    The loop is *pipelined* on the receive side: while a batch evaluates,
    the next frame is already being received and decoded in a prefetch task,
    so a pipelining client (window > 1) overlaps its encode/send of batch
    ``k+1`` with the container's evaluation of batch ``k``.  Evaluation
    itself stays strictly serial and in arrival order — containers are
    single-threaded, and in-order responses are what lets the client map
    results back to request ids cheaply.
    """

    def __init__(self, container, transport: Optional[Transport] = None) -> None:
        self._container = container
        self._transport = transport
        self._task: Optional[asyncio.Task] = None
        self.requests_served = 0
        self._draining = False
        # Held while a message is handled and answered, however it came.
        self._turn = asyncio.Lock()

    def start(self) -> asyncio.Task:
        """Start the serving loop as a background task."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self.serve_forever())
        return self._task

    async def serve_forever(self) -> None:
        """Process requests until the transport closes.

        Whatever ends the loop (the peer hanging up, a frame that cannot be
        decoded, a reply that cannot be sent, a drain) the transport is
        closed on the way out, so the client fails what it has pending at
        once instead of waiting out its timeout on a connection nobody reads.
        """
        loop = asyncio.get_running_loop()
        prefetch = loop.create_task(self._recv())
        try:
            while True:
                try:
                    payload, received = await prefetch
                except RpcError:
                    return
                if self._draining:
                    # Stop accepting: the prefetched frame arrived after the
                    # drain began and is deliberately dropped unanswered.
                    return
                # Prefetch the next frame immediately: its receive + decode
                # overlaps the evaluation below instead of following it.
                prefetch = loop.create_task(self._recv())
                try:
                    async with self._turn:
                        await self._transport.send(await self._handle(payload, received))
                except RpcError:
                    # A message a server does not take, or an unsendable reply.
                    return
                if self._draining:
                    return
        finally:
            prefetch.cancel()
            try:
                await prefetch
            except (asyncio.CancelledError, RpcError):
                pass
            await self._transport.close()

    async def _recv(self) -> Tuple[dict, float]:
        """The next message and when, on this host's clock, it arrived.

        A prefetched frame waits behind the batch being evaluated; the
        budgets it carries count from its arrival, not from its turn.
        """
        payload = await self._transport.recv()
        return payload, time.monotonic()

    async def call(self, message: dict) -> dict:
        """The reply to ``message``, by call: the handler the serving loop runs
        per frame, one message at a time in call order (a batch or a heartbeat
        waits for the one being evaluated)."""
        received = time.monotonic()
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
        return (await self._evaluate(payload, received)).to_payload()

    async def _evaluate(self, payload: dict, received: float) -> RpcResponse:
        """Evaluate one PREDICT payload (see :meth:`RpcRequest.to_payload`)."""
        request_id = int(payload["request_id"])
        inputs = payload["inputs"]
        trace = tuple(payload.get("trace", ()))
        # Traced batches additionally get monotonic eval stamps: same-host
        # dispatchers turn them into a ``container.eval`` span nested inside
        # the client's ``rpc.wait`` leg.  Untraced batches skip the stamps
        # (and the wire bytes) entirely.
        stamped = bool(trace) or bool(payload.get("stamp"))
        eval_start = time.monotonic() if stamped else 0.0
        start = time.perf_counter()
        skipped: tuple = ()
        budgets = payload.get("budgets_ms")
        if budgets:
            # Deadline propagation: an entry whose budget (ms left when sent,
            # ``inf`` = none) ran out since the request arrived is answered as
            # ``skipped`` instead of computing a result nobody waits for.  The
            # earliest budget decides, once, whether any entry is looked at; a
            # fully-expired batch skips the container call entirely.
            elapsed_ms = (time.monotonic() - received) * 1000.0
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
            else:
                outputs = list(
                    await asyncio.get_running_loop().run_in_executor(
                        None, self._container.predict_batch, inputs
                    )
                )
            self.requests_served += 1
        except Exception as exc:  # container failures must not kill the server
            outputs, error = [], f"{type(exc).__name__}: {exc}"
        return RpcResponse(
            request_id=request_id,
            outputs=outputs,
            error=error,
            container_latency_ms=(time.perf_counter() - start) * 1000.0,
            trace=trace,
            eval_start=eval_start,
            eval_end=time.monotonic() if stamped else 0.0,
            skipped=skipped,
        )

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
