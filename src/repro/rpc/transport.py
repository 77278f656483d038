"""RPC transports: framed messages over a real byte stream.

A transport moves framed messages between Clipper (the client side) and a
model container (the server side): TCP here, shared-memory rings in
:mod:`repro.rpc.shm`.  Both sides see one tiny interface, ``send(payload)`` /
``recv()`` / ``close()``.  A lane is built as a pair, ``(client, server)``:
:func:`tcp_pair` over loopback (its listener closes once the one connection
is accepted) and :func:`repro.rpc.shm.shm_pair`.  Across processes the worker
daemon's control connection becomes the tcp lane
(:mod:`repro.cluster.worker`).  A container in Clipper's process is called
instead (:class:`repro.rpc.client.DirectRpcClient`); :func:`codec_round_trip`
is what it hands over when the codec's cost is charged.

``TcpTransport`` is an :class:`asyncio.Protocol`: frames are cut in
``data_received`` as their bytes arrive, each stamped with its arrival, and
the one reading task is woken when a frame completes, not once for its
prefix and again for its body.  On the send side the 4-byte header and the
serializer's writev-style body segments go to the socket transport as one
segment list.  Decoded ndarrays are read-only zero-copy views into the
received frame.  :class:`StreamProtocol`, the half of a connection that
buffers, wakes its reader and does flow control, is shared with the
HTTP/1.1 framing (:mod:`repro.rpc.http11`).
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.core import clock
from repro.core.exceptions import RpcError, SerializationError
from repro.rpc.serialization import deserialize, serialize_buffers, serialized_nbytes

#: Maximum frame size sent or accepted (guards against corrupt prefixes).
MAX_FRAME_BYTES = 256 * 1024 * 1024
_LENGTH_PREFIX = struct.Struct("<I")
#: Bytes a socket transport buffers for a reader that is not waiting before
#: it stops reading from the socket (a larger frame the reader waits for is
#: read whole).
_READ_HIGH_WATER = 1 << 20


def frame_message(payload: dict) -> Tuple[List[Any], int]:
    """One message as wire segments, and the byte length of its body.

    A 4-byte little-endian length prefix, then the serializer's segments
    (they may alias the payload's arrays: write them out before mutating
    those).  The socket and the shared-memory transport both send this.
    """
    body = serialize_buffers(payload)
    length = serialized_nbytes(body)
    if length > MAX_FRAME_BYTES:
        # Refused before a byte is written, like a value the codec refuses:
        # a server fails that batch and its connection goes on.
        raise SerializationError(f"frame of {length} bytes exceeds maximum")
    return [_LENGTH_PREFIX.pack(length), *body], length


def codec_round_trip(payload: dict) -> dict:
    """``payload`` as a socket's far end decodes it (codec named via this module)."""
    body = serialize_buffers(payload)
    return deserialize(body[0] if len(body) == 1 else b"".join(body))


def frame_length(buffer: Any, offset: int = 0) -> int:
    """The body length a received 4-byte prefix at ``offset`` announces."""
    (length,) = _LENGTH_PREFIX.unpack_from(buffer, offset)
    if length > MAX_FRAME_BYTES:
        raise RpcError(f"frame length {length} exceeds maximum")
    return length


class Transport:
    """One endpoint of a bidirectional message transport: each kind has ``async
    send(payload)``, ``async recv() -> dict``, ``async close()`` and ``closed``."""

    async def recv_stamped(self) -> Tuple[dict, float]:
        """The next message, and when it arrived by ``clock.now()`` (here: when
        it is handed over; the shm rings never see a frame arrive)."""
        payload = await self.recv()
        return payload, clock.now()


class StreamProtocol(asyncio.Protocol):
    """One connection's byte stream, for one reading and one writing task.

    A subclass cuts messages in ``data_received``: it appends to ``_buffer``,
    wakes ``_reader`` (the future the reading task awaits, from
    :meth:`_park`) once what it waits for is in, and calls
    :meth:`_pause_if_full` while nobody reads.  Reading resumes when the
    reader next parks; :meth:`drain` waits while the socket transport is over
    its high-water mark; ``eof`` is set when the peer stops sending.
    """

    def __init__(self, pause_above: int, connected: Optional[Callable] = None) -> None:
        self._pause_above = pause_above
        self._connected = connected
        self._loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._reader: Optional[asyncio.Future] = None
        self._drained: Optional[asyncio.Future] = None
        self._read_paused = False
        self.write_paused = False
        self.eof = False

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # (asyncio's socket transports set TCP_NODELAY themselves.)
        self.transport = transport
        if self._connected is not None:
            self._connected(self)

    def eof_received(self) -> bool:
        self.eof = True
        self._wake_reader()
        # Keep the write side: a peer may half-close and still read replies.
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.eof = True
        self.write_paused = False
        self._wake_reader()
        self._wake(self._drained)

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._wake(self._drained)

    def _wake_reader(self) -> None:
        self._wake(self._reader)

    @staticmethod
    def _wake(waiter: Optional[asyncio.Future]) -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _pause_if_full(self) -> None:
        if len(self._buffer) > self._pause_above and not self._read_paused:
            self._read_paused = True
            self.transport.pause_reading()

    # -- the one reader/writer task's side ---------------------------------------

    async def drain(self) -> None:
        """Wait until the transport's buffer falls below its high-water mark."""
        while self.write_paused:
            self._drained = self._loop.create_future()
            try:
                await self._drained
            finally:
                self._drained = None

    def _park(self) -> asyncio.Future:
        """The future the reading task awaits for more bytes or the end of the
        stream; it sets ``_reader`` back to None when it wakes."""
        if self._read_paused:
            self._read_paused = False
            self.transport.resume_reading()
        self._reader = self._loop.create_future()
        return self._reader


class TcpTransport(StreamProtocol, Transport):
    """Length-prefix framed messages over one TCP connection.

    Complete frames stay at the head of the buffer, their arrival times in
    ``_arrivals``.  A prefix over :data:`MAX_FRAME_BYTES`, or the stream
    ending inside a frame, hangs up: where the next frame would start is
    unknown, and the peer learns it at once.  Frames cut before the bad
    prefix are still delivered.
    """

    def __init__(self, connected: Optional[Callable] = None) -> None:
        super().__init__(_READ_HIGH_WATER, connected)
        self._arrivals: Deque[float] = deque()
        self._scanned = 0  # where the first incomplete frame starts
        self._refused: Optional[str] = None
        self._closed = False
        self._lost = self._loop.create_future()

    @staticmethod
    async def connect(host: str, port: int) -> "TcpTransport":
        """Open a client connection to a listening container server."""
        _, endpoint = await asyncio.get_running_loop().create_connection(
            TcpTransport, host, port
        )
        return endpoint

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        at = self._scanned
        try:
            while len(buffer) - at >= 4:
                end = at + 4 + frame_length(buffer, at)
                if len(buffer) < end:
                    break
                self._arrivals.append(clock.now())
                at = end
        except RpcError as exc:
            self._refused = str(exc)
            self.eof = True
            self.transport.close()
        self._scanned = at
        if self._reader is None:
            self._pause_if_full()
        elif self._arrivals or self.eof:
            self._wake(self._reader)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self._wake(self._lost)

    async def send(self, payload: dict) -> None:
        if self._closed or self.transport.is_closing():
            raise RpcError("transport is closed")
        self.transport.writelines(frame_message(payload)[0])
        if self.write_paused:
            await self.drain()

    async def recv(self) -> dict:
        return (await self.recv_stamped())[0]

    async def recv_stamped(self) -> Tuple[dict, float]:
        while self._closed or not self._arrivals:  # raise when no frame will come
            if self._closed:
                raise RpcError("transport is closed")
            if self.eof:
                self._hang_up()
                where = "inside a frame" if self._buffer else "by peer"
                raise RpcError(self._refused or f"connection closed {where}")
            try:
                await self._park()
            finally:
                self._reader = None
        return deserialize(self._cut()), self._arrivals.popleft()

    def _cut(self) -> bytes:
        """The body of the frame at the buffer's head, taken off it."""
        buffer = self._buffer
        end = 4 + frame_length(buffer)
        body = bytes(memoryview(buffer)[4:end])
        del buffer[:end]
        self._scanned -= end
        return body

    def _hang_up(self) -> None:
        self._closed = True
        if self.transport is not None:
            self.transport.close()

    async def close(self) -> None:
        if not self._closed:
            self._hang_up()
            if self.transport is not None:
                await self._lost

    @property
    def closed(self) -> bool:
        return self._closed


async def tcp_pair() -> Tuple[TcpTransport, TcpTransport]:
    """(client, server) ends of a loopback TCP lane, on the running loop.

    The listener lives only until the one connection is accepted; the client
    end is opened through :meth:`TcpTransport.connect`.
    """
    loop = asyncio.get_running_loop()
    accepted: asyncio.Future = loop.create_future()
    listener = await loop.create_server(
        lambda: TcpTransport(connected=accepted.set_result), "127.0.0.1", 0
    )
    try:
        port = listener.sockets[0].getsockname()[1]
        client = await TcpTransport.connect("127.0.0.1", port)
        return client, await accepted
    finally:
        listener.close()
