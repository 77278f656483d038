"""HTTP/1.1 message framing, shared by the REST server and the client SDK.

Both ends read the same thing off a socket — a head and a ``Content-Length``
body — so both drive this one parser from one :class:`asyncio.Protocol`:

* a message is located with **one** ``find(b"\\r\\n\\r\\n")`` and its head split
  once; the reading task is woken only when the bytes it waits for are in,
* **limits**: a head over :data:`HEAD_LIMIT`, more than ``max_header_count``
  header lines, a body over ``max_body_bytes``, a ``Content-Length`` that is
  not ASCII digits or disagrees with a repeat of itself, and chunked bodies
  are each a :class:`FramingError` — the stream cannot be re-synchronised,
* **flow control** both ways: :meth:`Http1Connection.drain` waits while the
  transport is over its high-water mark, and reading pauses while nobody is
  consuming and more than one head + body limit is buffered (a pipelining
  flood costs the peer its send window, not this process its memory).

Lines end in CRLF; a bare LF is not a line terminator here.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Tuple

#: Largest message head (start line + headers), terminator excluded.
HEAD_LIMIT = 64 * 1024

#: Memos of values that arrive from outside the process, hence bounded.
_MEDIA_TYPES: Dict[str, str] = {}
_HEADS: Dict[bytes, Tuple[str, Dict[str, str], int, int]] = {}
MEMO_MAX = 64
_MEMO_HEAD_MAX = 512


class FramingError(Exception):
    """The byte stream is not parseable HTTP/1.1; the connection cannot resync."""


def media_type(content_type: str) -> str:
    """``type/subtype`` of a ``Content-Type`` value (memoised by raw value)."""
    media = _MEDIA_TYPES.get(content_type)
    if media is None:
        media = content_type.split(";")[0].strip().lower()
        if len(_MEDIA_TYPES) < MEMO_MAX:
            _MEDIA_TYPES[content_type] = media
    return media


def parse_head(raw: bytes, max_header_count: int) -> Tuple[str, Dict[str, str], int]:
    """Split a message head into its start line, headers and body length.

    Header names are lower-cased and a repeated header keeps its last value,
    except ``Content-Length``, whose repeats must agree.  A keep-alive peer
    sends the same head message after message (a model's inputs have one
    size), so short heads are memoised whole; the memo starts over when full.
    """
    parsed = _HEADS.get(raw)
    if parsed is None:
        lines = raw.decode("latin-1").split("\r\n")
        headers: Dict[str, str] = {}
        length = None
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise FramingError("malformed HTTP header line")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                # ``int()`` alone would take "1_0", "+5", "-0" and non-ASCII digits.
                if not (value.isascii() and value.isdigit()):
                    raise FramingError("Content-Length is not a non-negative integer")
                if length is not None and int(value) != length:
                    raise FramingError("conflicting Content-Length headers")
                length = int(value)
            headers[name] = value
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise FramingError("chunked bodies are not supported")
        parsed = (lines[0], headers, length or 0, len(lines) - 1)
        if len(raw) <= _MEMO_HEAD_MAX:
            if len(_HEADS) >= MEMO_MAX:
                _HEADS.clear()
            _HEADS[raw] = parsed
    start_line, headers, length, header_lines = parsed
    if header_lines > max_header_count:
        raise FramingError("too many HTTP headers")
    return start_line, dict(headers), length


class Http1Connection(asyncio.Protocol):
    """One connection's byte stream, cut into HTTP/1.1 messages.

    One task reads (:meth:`read_message`) and writes (straight to
    ``transport``, then :meth:`drain` while ``write_paused``) at a time.
    """

    def __init__(
        self,
        max_body_bytes: int,
        max_header_count: int = 100,
        connected: Optional[Callable[["Http1Connection"], None]] = None,
    ) -> None:
        self._max_body_bytes = max_body_bytes
        self._max_header_count = max_header_count
        self._connected = connected
        self._loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._scanned = 0  # bytes already searched for the blank line
        self._head: Optional[Tuple[str, Dict[str, str], int, int]] = None
        self._need = 0  # buffered size worth waking the reader for
        self._reader: Optional[asyncio.Future] = None
        self._drained: Optional[asyncio.Future] = None
        self._read_paused = False
        self.write_paused = False
        self.eof = False

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # (asyncio's socket transports set TCP_NODELAY themselves.)
        self.transport = transport
        if self._connected is not None:
            self._connected(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        if self._reader is not None:
            if len(buffer) >= self._need:
                self._wake(self._reader)
        elif (
            len(buffer) > HEAD_LIMIT + self._max_body_bytes and not self._read_paused
        ):
            self._read_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        self._wake(self._reader)
        # Keep the write side: a peer may half-close and still read replies.
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.eof = True
        self.write_paused = False
        self._wake(self._reader)
        self._wake(self._drained)

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._wake(self._drained)

    @staticmethod
    def _wake(waiter: Optional[asyncio.Future]) -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- the one reader/writer task's side ---------------------------------------

    async def drain(self) -> None:
        """Wait until the transport's buffer falls below its high-water mark."""
        while self.write_paused:
            self._drained = self._loop.create_future()
            try:
                await self._drained
            finally:
                self._drained = None

    async def read_message(
        self, idle_timeout_s: Optional[float] = None
    ) -> Optional[Tuple[str, Dict[str, str], bytes]]:
        """The next ``(start line, headers, body)``; None at a clean end of stream.

        A stream that ends inside a message raises ``ConnectionResetError``.
        ``idle_timeout_s`` bounds the wait for a complete *head* — one timer
        from the first wait until the blank line arrives, however the peer
        trickles it — and ends the stream when it expires.
        """
        timer = None
        try:
            while True:
                if self._buffer:
                    message = self._take_message()
                    if message is not None:
                        return message
                if self.eof:
                    if self._buffer:
                        raise ConnectionResetError("connection closed inside a message")
                    return None
                if self._head is not None and timer is not None:
                    timer.cancel()  # the head is in; a body may take its time
                elif idle_timeout_s is not None and timer is None and self._head is None:
                    timer = self._loop.call_later(idle_timeout_s, self.close)
                if self._read_paused:
                    self._read_paused = False
                    self.transport.resume_reading()
                self._reader = self._loop.create_future()
                try:
                    await self._reader
                finally:
                    self._reader = None
        finally:
            if timer is not None:
                timer.cancel()

    def _take_message(self) -> Optional[Tuple[str, Dict[str, str], bytes]]:
        """Cut one complete message off the buffer, if one is there."""
        buffer = self._buffer
        head = self._head
        if head is None:
            end = buffer.find(b"\r\n\r\n", self._scanned, HEAD_LIMIT + 4)
            if end < 0:
                if len(buffer) >= HEAD_LIMIT + 4:
                    raise FramingError("message head exceeds the size limit")
                self._scanned = max(0, len(buffer) - 3)
                self._need = len(buffer) + 1
                return None
            start_line, headers, length = parse_head(
                bytes(buffer[:end]), self._max_header_count
            )
            if length > self._max_body_bytes:
                raise FramingError(
                    f"message body exceeds the {self._max_body_bytes}-byte limit"
                )
            head = (start_line, headers, end + 4, end + 4 + length)
        start_line, headers, body_start, end = head
        if len(buffer) < end:
            self._head = head
            self._need = end
            return None
        body = bytes(memoryview(buffer)[body_start:end]) if end > body_start else b""
        del buffer[:end]
        self._head = None
        self._scanned = self._need = 0
        return start_line, headers, body
