"""RPC transports: framed messages over a real byte stream.

A transport moves framed messages between Clipper (the client side) and a
model container (the server side) that do not share a process: TCP here,
shared-memory rings in :mod:`repro.rpc.shm`.  Both sides see one tiny
interface, ``send(payload)`` / ``recv()`` / ``close()``.  A container in
Clipper's process is called instead (:class:`repro.rpc.client.DirectRpcClient`);
:func:`codec_round_trip` is what it hands over when the codec's cost is charged.

Framing is copy-free on the send side: ``TcpTransport`` writes the 4-byte
header and the serializer's writev-style body segments with
``StreamWriter.writelines``, never joined into one ``bytes``.  Decoded
ndarrays are read-only zero-copy views into the received frame.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, List, Optional, Tuple

from repro.core.exceptions import RpcError
from repro.rpc.serialization import deserialize, serialize_buffers, serialized_nbytes

#: Maximum frame size sent or accepted (guards against corrupt prefixes).
MAX_FRAME_BYTES = 256 * 1024 * 1024
_LENGTH_PREFIX = struct.Struct("<I")


def frame_message(payload: dict) -> Tuple[List[Any], int]:
    """One message as wire segments, and the byte length of its body.

    A 4-byte little-endian length prefix, then the serializer's segments
    (they may alias the payload's arrays: write them out before mutating
    those).  The socket and the shared-memory transport both send this.
    """
    body = serialize_buffers(payload)
    length = serialized_nbytes(body)
    if length > MAX_FRAME_BYTES:
        raise RpcError(f"frame of {length} bytes exceeds maximum")
    return [_LENGTH_PREFIX.pack(length), *body], length


def codec_round_trip(payload: dict) -> dict:
    """``payload`` as a socket's far end decodes it (codec named via this module)."""
    body = serialize_buffers(payload)
    return deserialize(body[0] if len(body) == 1 else b"".join(body))


def frame_length(prefix: Any) -> int:
    """The body length a received 4-byte prefix announces."""
    (length,) = _LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise RpcError(f"frame length {length} exceeds maximum")
    return length


class Transport:
    """Abstract bidirectional message transport (one endpoint)."""

    async def send(self, payload: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    async def recv(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    async def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def closed(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class TcpTransport(Transport):
    """Length-prefix framed transport over an asyncio TCP stream."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False

    @staticmethod
    async def connect(host: str, port: int) -> "TcpTransport":
        """Open a client connection to a listening container server."""
        reader, writer = await asyncio.open_connection(host, port)
        return TcpTransport(reader, writer)

    async def send(self, payload: dict) -> None:
        if self._closed:
            raise RpcError("transport is closed")
        # writev-style: header and body segments go to the stream without
        # ever being concatenated into one frame-sized bytes object.
        self._writer.writelines(frame_message(payload)[0])
        await self._writer.drain()

    async def recv(self) -> dict:
        if self._closed:
            raise RpcError("transport is closed")
        try:
            length = frame_length(await self._reader.readexactly(4))
            body = await self._reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self._hang_up()
            raise RpcError(f"connection closed while reading frame: {exc}") from exc
        except RpcError:
            # An impossible prefix: where the next frame starts is unknown.
            self._hang_up()
            raise
        return deserialize(body)

    def _hang_up(self) -> None:
        self._closed = True
        self._writer.close()

    async def close(self) -> None:
        if not self._closed:
            self._hang_up()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @property
    def closed(self) -> bool:
        return self._closed


class TcpListener:
    """Helper that accepts container connections and hands out transports."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._accepted: asyncio.Queue = asyncio.Queue()

    async def start(self) -> None:
        """Begin listening; ``port`` is updated with the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._accepted.put(TcpTransport(reader, writer))

    async def accept(self) -> TcpTransport:
        """Wait for and return the next accepted connection."""
        if self._server is None:
            raise RpcError("listener is not started")
        return await self._accepted.get()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
