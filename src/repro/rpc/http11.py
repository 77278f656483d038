"""HTTP/1.1 message framing, shared by the REST server and the client SDK.

Both ends read the same thing off a socket — a head and a ``Content-Length``
body — so both drive this one parser from one :class:`asyncio.Protocol`,
whose buffering, wake-up and flow-control half
(:class:`~repro.rpc.transport.StreamProtocol`) the container RPC's socket
transport shares:

* a message is located with **one** ``find(b"\\r\\n\\r\\n")`` and its head split
  once; the reading task is woken only when the bytes it waits for are in,
* what a repeated head implies is derived once per distinct value, in
  bounded memos (:func:`remember`): the parsed head (its header mapping
  read-only), then each end's own facts (request line, codecs, status),
* **inline serving** (:meth:`Http1Connection.serve`): a server connection's
  coroutine is stepped from the socket callbacks while it waits for bytes,
  and runs in a task only while it waits on anything else,
* **limits**: a head over :data:`HEAD_LIMIT`, more than :data:`MAX_HEADER_COUNT`
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

import types
from typing import Any, Callable, Coroutine, Dict, Mapping, Optional, Tuple

from repro.rpc.transport import StreamProtocol

#: Largest message head (start line + headers), terminator excluded.
HEAD_LIMIT = 64 * 1024
#: Most header lines a message head may carry.
MAX_HEADER_COUNT = 100

#: Memos of values that arrive from outside the process, hence bounded.
_HEADS: Dict[bytes, Tuple[str, Mapping[str, str], int, int]] = {}
MEMO_MAX = 64
_MEMO_HEAD_MAX = 512


class FramingError(Exception):
    """The byte stream is not parseable HTTP/1.1; the connection cannot resync."""


def remember(memo: Dict[Any, Any], key: Any, value: Any) -> Any:
    """``memo[key] = value``, starting the memo over at :data:`MEMO_MAX` keys
    (they come from peers); returns ``value``."""
    if len(memo) >= MEMO_MAX:
        memo.clear()
    memo[key] = value
    return value


def media_type(content_type: str) -> str:
    """``type/subtype`` of a ``Content-Type`` value."""
    return content_type.split(";")[0].strip().lower()


def parse_head(raw: bytes) -> Tuple[str, Mapping[str, str], int]:
    """Split a message head into its start line, headers and body length.

    Header names are lower-cased and a repeated header keeps its last value,
    except ``Content-Length``, whose repeats must agree.  A keep-alive peer
    sends the same head message after message (a model's inputs have one
    size), so short heads are memoised whole, which is why the header
    mapping is read-only.
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
        parsed = (lines[0], types.MappingProxyType(headers), length or 0, len(lines) - 1)
        if len(raw) <= _MEMO_HEAD_MAX:
            remember(_HEADS, raw, parsed)
    start_line, headers, length, header_lines = parsed
    if header_lines > MAX_HEADER_COUNT:
        raise FramingError("too many HTTP headers")
    return start_line, headers, length


class _Parked:
    """What a served coroutine yields while it waits for bytes, to the code stepping it."""

    def __await__(self):
        yield self


PARKED = _Parked()


class _Carried:
    """``coro`` waiting on ``waiting``, as the coroutine a task runs: the first
    step hands the task that awaitable, later ones forward to ``coro`` (a
    cancellation too) until it parks on its socket again, which ends the task."""

    def __init__(self, coro: Coroutine, waiting: Any) -> None:
        self._coro, self._waiting = coro, waiting

    def send(self, value: Any) -> Any:
        if self._waiting is not PARKED:
            waiting, self._waiting = self._waiting, PARKED
            return waiting
        return self._carry(self._coro.send(value))

    def throw(self, exc: BaseException) -> Any:
        self._waiting = PARKED
        return self._carry(self._coro.throw(exc))

    @staticmethod
    def _carry(waiting: Any) -> Any:
        if waiting is PARKED:
            raise StopIteration
        return waiting

    def close(self) -> None:
        self._coro.close()

    def __await__(self) -> "_Carried":
        return self


class Http1Connection(StreamProtocol):
    """One connection's byte stream, cut into HTTP/1.1 messages.

    One task reads (:meth:`read_message`) and writes (straight to
    ``transport``, then :meth:`drain` while ``write_paused``) at a time; on
    the server that "task" is the coroutine :meth:`serve` drives.
    """

    def __init__(
        self,
        max_body_bytes: int,
        connected: Optional[Callable[["Http1Connection"], None]] = None,
    ) -> None:
        super().__init__(HEAD_LIMIT + max_body_bytes, connected)
        self._max_body_bytes = max_body_bytes
        self._scanned = 0  # bytes already searched for the blank line
        self._head: Optional[Tuple[str, Mapping[str, str], int, int]] = None
        self._need = 0  # buffered size worth waking the reader for
        self._serving: Optional[Coroutine] = None  # see serve()

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    def serve(self, coro: Coroutine) -> None:
        """Run ``coro``, this connection's read-and-answer loop, inline.

        While it waits for bytes it yields :data:`PARKED`, not a future, and
        the callback that brings them (or the end of the stream) steps it on.
        While it waits on anything else it runs in a task.  An exception that
        escapes ``coro`` inline takes asyncio's protocol-error path, which
        closes the transport; one in the task is the task's.
        """
        self._serving = coro
        self._step()

    def _step(self) -> None:
        try:
            waiting = self._serving.send(None)
        except StopIteration:
            return
        if waiting is not PARKED:
            self._loop.create_task(_Carried(self._serving, waiting))

    def _park(self) -> Any:
        if self._serving is None:
            return super()._park()
        if self._read_paused:
            self._read_paused = False
            self.transport.resume_reading()
        self._reader = PARKED
        return PARKED

    def _wake_reader(self) -> None:
        if self._reader is PARKED:
            self._step()
        else:
            self._wake(self._reader)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        if self._reader is None:
            self._pause_if_full()
        elif len(buffer) >= self._need:  # _wake_reader, without a call per message
            if self._reader is PARKED:
                self._step()
            else:
                self._wake(self._reader)

    async def read_message(
        self, idle_timeout_s: Optional[float] = None
    ) -> Optional[Tuple[str, Mapping[str, str], bytes]]:
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
                try:
                    await self._park()
                finally:
                    self._reader = None
        finally:
            if timer is not None:
                timer.cancel()

    def _take_message(self) -> Optional[Tuple[str, Mapping[str, str], bytes]]:
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
            start_line, headers, length = parse_head(bytes(buffer[:end]))
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
