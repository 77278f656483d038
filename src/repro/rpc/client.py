"""RPC client used by the model abstraction layer to reach a container replica."""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.exceptions import RpcError
from repro.rpc.protocol import MessageType, RpcRequest, RpcResponse, message_type
from repro.rpc.transport import Transport


class RpcClient:
    """Sends batch prediction requests over a transport and awaits responses.

    One client is bound to one container replica (matching the paper's one
    queue / one RPC connection per replica design).  The client *pipelines*:
    several requests may be outstanding on the connection at once — the
    batching dispatcher overlaps draining and encoding the next batch with
    the container's evaluation of the current one — so responses are
    demultiplexed by ``request_id``.  A single background receive pump owns
    ``transport.recv()`` and resolves each response's waiter; the container
    server evaluates requests one at a time in arrival order, so per-request
    results always land on the matching waiter regardless of how many
    batches are in flight.
    """

    def __init__(self, transport: Transport, timeout_s: Optional[float] = 30.0) -> None:
        self._transport = transport
        self._timeout_s = timeout_s
        self._request_ids = itertools.count()
        self._send_lock = asyncio.Lock()
        self._pending: Dict[int, asyncio.Future] = {}
        self._pump_task: Optional[asyncio.Task] = None

    async def predict(
        self,
        model_name: str,
        inputs: List[Any],
        metadata: Optional[dict] = None,
        trace: Optional[List[Any]] = None,
        span_log: Optional[list] = None,
        deadlines: Optional[List[float]] = None,
    ) -> RpcResponse:
        """Send one batch and wait for the aligned batch of outputs.

        Safe to call concurrently: requests are written to the transport one
        at a time, but callers wait on their own response waiter, so a new
        batch can be sent while earlier batches are still being evaluated.

        ``trace`` carries the trace ids of the queries in the batch that own
        one (the optional wire header); ``deadlines`` carries per-entry absolute
        monotonic deadlines on this host's clock (0.0 = none; sent as
        remaining budgets) the server may use to skip already-expired
        entries, reported back via ``response.skipped``;
        ``span_log``, when given, receives
        ``("rpc.send"/"rpc.wait", t0, t1, None)`` monotonic span tuples for
        the send and response-wait legs of this exchange, and the request
        asks the container to stamp its evaluation window (``stamp``).
        """
        if not inputs:
            raise RpcError("cannot send an empty prediction batch")
        request = RpcRequest(
            request_id=next(self._request_ids),
            model_name=model_name,
            inputs=inputs,
            metadata=metadata or {},
            trace=tuple(trace) if trace else (),
            deadlines=deadlines or (),
            stamp=span_log is not None,
        )
        payload = await self._exchange(
            request.request_id, request.to_payload(), span_log=span_log
        )
        response = RpcResponse.from_payload(payload)
        if response.ok and len(response.outputs) + len(response.skipped) != len(inputs):
            raise RpcError(
                f"container returned {len(response.outputs)} outputs "
                f"and {len(response.skipped)} skips "
                f"for a batch of {len(inputs)} inputs"
            )
        return response

    async def heartbeat(self, timeout_s: Optional[float] = None) -> bool:
        """Probe container health; returns True when it responds healthy.

        ``timeout_s`` bounds the whole probe, so health monitors can use a
        probe deadline much shorter than the prediction RPC timeout even
        while batches are in flight on the same connection.  A response
        whose ``healthy`` flag is false (the container's own
        :meth:`~repro.containers.base.ModelContainer.healthy` verdict) counts
        as a failed probe even though the transport is alive.
        """
        request_id = next(self._request_ids)
        message = {"type": int(MessageType.HEARTBEAT), "request_id": request_id}
        try:
            # The timeout wraps the whole exchange — including waiting for
            # the send lock behind an in-flight batch and the send itself —
            # not just the response wait, so a wedged connection probes
            # False instead of hanging the health monitor.
            payload = await asyncio.wait_for(
                self._exchange(request_id, message, timeout_s=None), timeout=timeout_s
            )
        except (RpcError, asyncio.TimeoutError):
            return False
        return message_type(payload) == MessageType.HEARTBEAT_RESPONSE and bool(
            payload.get("healthy", True)
        )

    async def _exchange(
        self,
        request_id: int,
        message: dict,
        timeout_s: Optional[float] = ...,
        span_log: Optional[list] = None,
    ) -> dict:
        """Send one message and wait for the response with its request id."""
        if timeout_s is ...:
            timeout_s = self._timeout_s
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        t_send = time.monotonic() if span_log is not None else 0.0
        async with self._send_lock:
            self._ensure_pump(loop)
            self._pending[request_id] = waiter
            try:
                await self._transport.send(message)
            except BaseException:
                self._pending.pop(request_id, None)
                raise
        if span_log is not None:
            t_sent = time.monotonic()
            span_log.append(("rpc.send", t_send, t_sent, None))
        try:
            try:
                payload = await asyncio.wait_for(waiter, timeout=timeout_s)
            except asyncio.TimeoutError as exc:
                raise RpcError(f"timed out after {timeout_s}s waiting for response") from exc
            if span_log is not None:
                span_log.append(("rpc.wait", t_sent, time.monotonic(), None))
            return payload
        finally:
            # A response arriving after a timeout finds no pending entry and
            # is dropped by the pump (the old stale-response behaviour).
            self._pending.pop(request_id, None)

    def _ensure_pump(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = loop.create_task(self._pump())

    async def _pump(self) -> None:
        """Receive loop: route each response to its request's waiter.

        Runs until the transport closes (or errors), then fails every
        still-pending waiter so in-flight callers see the connection error
        instead of their own timeout.
        """
        try:
            while True:
                payload = await self._transport.recv()
                waiter = self._pending.pop(int(payload.get("request_id", -1)), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(payload)
                # No waiter: stale response from an abandoned request — drop.
        except RpcError as exc:
            self._fail_pending(RpcError(f"connection closed: {exc}"))
        except asyncio.CancelledError:
            self._fail_pending(RpcError("transport is closed"))
            raise

    def _fail_pending(self, error: RpcError) -> None:
        pending, self._pending = self._pending, {}
        for waiter in pending.values():
            if not waiter.done():
                waiter.set_exception(error)

    async def close(self) -> None:
        await self._transport.close()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self._fail_pending(RpcError("transport is closed"))


class DirectRpcClient(RpcClient):
    """The in-process lane: each message is a call into the container's
    server (:meth:`~repro.rpc.server.ContainerRpcServer.call`), not a frame.

    What crosses, each way, is ``copy(message)``: a private copy equal to the
    codec's round trip (:func:`~repro.rpc.serialization.wire_copy`) or that
    round trip itself.  Each call is a task of its own: a caller that times
    out abandons the reply, not the evaluation, which keeps its turn.
    """

    def __init__(self, server, copy: Callable[[Any], Any], timeout_s: Optional[float]) -> None:
        super().__init__(self, timeout_s)  # its own transport: send() is the call
        self._server = server
        self._copy = copy
        self._calls: Set[asyncio.Task] = set()
        self._closed = False

    def _ensure_pump(self, loop: asyncio.AbstractEventLoop) -> None:
        """Each reply comes back through its call: there is nothing to receive."""

    async def send(self, message: dict) -> None:
        if self._closed:
            raise RpcError("transport is closed")
        waiter = self._pending[message["request_id"]]  # registered by _exchange
        call = asyncio.get_running_loop().create_task(self._call(self._copy(message), waiter))
        self._calls.add(call)
        call.add_done_callback(self._calls.discard)

    async def _call(self, message: dict, waiter: asyncio.Future) -> None:
        try:
            reply = self._copy(await self._server.call(message))
            if not waiter.done():  # else its caller gave up on it
                waiter.set_result(reply)
        except RpcError as exc:  # a reply the codec refuses to carry
            if not waiter.done():
                waiter.set_exception(exc)

    async def close(self) -> None:
        self._closed = True
        for call in self._calls:
            call.cancel()
        await asyncio.gather(*self._calls, return_exceptions=True)
        self._fail_pending(RpcError("transport is closed"))
