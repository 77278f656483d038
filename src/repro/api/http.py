"""Stdlib asyncio HTTP/1.1 binding for the versioned route table.

The thinnest possible REST edge: :class:`HttpApiServer` hosts a
:class:`~repro.api.routes.RouteTable` on ``asyncio.start_server`` — no
framework, no new dependencies.  It implements exactly what the serving
surface needs:

* HTTP/1.1 request parsing (request line, headers, ``Content-Length``
  bodies) with bounded header/body sizes,
* **keep-alive** connections (``Connection: close`` honoured; HTTP/1.0
  defaults to close) so clients amortize the TCP handshake across queries,
* JSON request/response bodies (binary inputs travel as base64 per the
  application schema), with **content-type negotiation**
  (:meth:`HttpApiServer.register_content_type`): proper ``Accept`` handling
  — multi-valued headers, ``q`` values, ``*/*``, 406 when nothing matches —
  selects among registered encodings.  :func:`create_server` registers the
  binary columnar format (:mod:`repro.api.columnar`) alongside JSON, whose
  responses stream out as zero-copy buffer segments,
* the structured error model: every failure — framing, routing, validation,
  serving — renders as ``{"error": {code, status, message, detail}}``.

Application lifecycle belongs to the frontends the server was built over:
each is started (all-or-nothing, idempotent) *before* the listening socket
binds, so a partial start never leaves a listener accepting traffic it
cannot serve, and stopped in reverse order after the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qsl

from repro.api.errors import (
    ApiError,
    BadRequestError,
    NotAcceptableError,
    UnsupportedMediaTypeError,
    error_payload,
    status_of,
)
from repro.api.routes import RouteTable
from repro.api.schema import json_safe
from repro.observability.logging import configure_logging, get_logger

logger = get_logger("api.http")

#: Reason phrases for the statuses the API layer emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    406: "Not Acceptable",
    409: "Conflict",
    413: "Content Too Large",
    415: "Unsupported Media Type",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

JSON_CONTENT_TYPE = "application/json"

#: Static response-head fragments, rendered once and reused: the per-response
#: head is a join of cached byte fragments plus the one dynamic number
#: (``Content-Length``) — no per-response f-string assembly on the hot path.
_HEAD_PREFIXES: Dict[Tuple[int, bool], bytes] = {}
_CT_LINES: Dict[str, bytes] = {}


def _head_prefix(status: int, keep_alive: bool) -> bytes:
    """``HTTP/1.1 <status> <reason>\\r\\nConnection: ...\\r\\n``, cached."""
    key = (status, keep_alive)
    prefix = _HEAD_PREFIXES.get(key)
    if prefix is None:
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        prefix = f"HTTP/1.1 {status} {reason}\r\nConnection: {connection}\r\n".encode(
            "ascii"
        )
        _HEAD_PREFIXES[key] = prefix
    return prefix


def _content_type_line(content_type: str) -> bytes:
    line = _CT_LINES.get(content_type)
    if line is None:
        line = f"Content-Type: {content_type}\r\n".encode("ascii")
        _CT_LINES[content_type] = line
    return line


class _FramingError(Exception):
    """The connection's byte stream is not parseable HTTP; cannot resync."""


def _encode_json(body: Any) -> bytes:
    return json.dumps(json_safe(body), separators=(",", ":")).encode("utf-8")


def _decode_json(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


class HttpApiServer:
    """Serves a route table over HTTP/1.1 on the asyncio event loop."""

    def __init__(
        self,
        routes: RouteTable,
        host: str = "127.0.0.1",
        port: int = 0,
        lifecycle: Sequence[Any] = (),
        max_body_bytes: int = 32 * 1024 * 1024,
        max_header_count: int = 100,
        keep_alive_timeout_s: Optional[float] = None,
    ) -> None:
        self.routes = routes
        self.host = host
        self._requested_port = port
        # Lifecycle owners — the frontends, whose start() brings up their
        # applications (and a ManagementFrontend's health monitors and canary
        # controllers) — started in order and stopped in reverse.  Their
        # start/stop must be all-or-nothing and idempotent.
        self._lifecycle: Tuple[Any, ...] = tuple(lifecycle)
        self._max_body_bytes = max_body_bytes
        self._max_header_count = max_header_count
        self._keep_alive_timeout_s = keep_alive_timeout_s
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set = set()
        self._draining = False
        self._inflight = 0
        # Set whenever no request is mid-dispatch; drain() waits on it.
        self._idle = asyncio.Event()
        self._idle.set()
        self._encoders: Dict[str, Callable[[Any], bytes]] = {
            JSON_CONTENT_TYPE: _encode_json
        }
        self._decoders: Dict[str, Callable[[bytes], Any]] = {
            JSON_CONTENT_TYPE: _decode_json
        }

    # -- content-type negotiation hook -----------------------------------------

    def register_content_type(
        self,
        content_type: str,
        encoder: Optional[Callable[[Any], bytes]] = None,
        decoder: Optional[Callable[[bytes], Any]] = None,
    ) -> None:
        """Register an alternative wire encoding (e.g. a binary/columnar one).

        Requests select the decoder through ``Content-Type`` and the encoder
        through ``Accept``; JSON stays the default for both.
        """
        content_type = content_type.lower()
        if encoder is not None:
            self._encoders[content_type] = encoder
        if decoder is not None:
            self._decoders[content_type] = decoder

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The bound port (None until :meth:`start` succeeds)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """``http://host:port`` of the listening socket."""
        port = self.port
        if port is None:
            raise RuntimeError("server is not listening")
        return f"http://{self.host}:{port}"

    @property
    def is_serving(self) -> bool:
        return self._server is not None and self._server.is_serving()

    async def start(self) -> None:
        """Start the lifecycle owners in order, then bind the socket.

        All-or-nothing like the frontends: each owner's own start stops what
        it brought up when it fails, and a failure here — a later owner, or
        the bind — stops the owners already started, so **no listener is
        ever bound** to backends that cannot serve and nothing is left
        running behind a failed start.
        """
        if self._server is not None:
            return
        # Idempotent process-wide logging setup: repeat server starts (or
        # multiple servers in one process) never stack duplicate handlers.
        configure_logging()
        try:
            for owner in self._lifecycle:
                await owner.start()
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self._requested_port
            )
        except BaseException:
            # Stopping an owner that never started is a no-op.  Should a stop
            # fail too, its error propagates chained to this one.
            await self._stop_lifecycle()
            raise
        logger.info("http server started", extra={"host": self.host, "port": self.port})

    async def _stop_lifecycle(self) -> None:
        for owner in reversed(self._lifecycle):
            await owner.stop()

    async def drain(self, timeout_s: float = 5.0) -> None:
        """Graceful SIGTERM path: stop accepting, finish in-flight, stop.

        The listening socket closes immediately (new connections are
        refused), responses currently being computed or written are allowed
        up to ``timeout_s`` to complete — requests answered while draining
        carry ``Connection: close`` — and then the ordinary :meth:`stop`
        teardown runs, which also hangs up idle keep-alive connections.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
        except asyncio.TimeoutError:
            pass
        await self.stop()

    async def stop(self) -> None:
        """Close the listener and connections, then stop the lifecycle owners."""
        if self._server is None:
            return
        self._server.close()
        for writer in list(self._writers):
            writer.close()
        try:
            await self._server.wait_closed()
        finally:
            self._server = None
        logger.info("http server stopped", extra={"host": self.host})
        await self._stop_lifecycle()

    async def __aenter__(self) -> "HttpApiServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family in (socket.AF_INET, socket.AF_INET6):
            # Responses are written whole; never trade latency for batching.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as exc:
                    # The stream cannot be re-synchronized: answer once and
                    # hang up.
                    await self._write_response(
                        writer,
                        400,
                        error_payload(BadRequestError(str(exc))),
                        JSON_CONTENT_TYPE,
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break  # client closed cleanly between requests
                method, path, query_string, headers, body_bytes = request
                keep_alive = self._wants_keep_alive(headers) and not self._draining
                self._inflight += 1
                self._idle.clear()
                try:
                    status, body, content_type, extra_headers = await self._dispatch(
                        method, path, query_string, headers, body_bytes
                    )
                    await self._write_response(
                        writer,
                        status,
                        body,
                        content_type,
                        keep_alive=keep_alive,
                        extra_headers=extra_headers,
                    )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        """Parse one request; None on clean EOF, :class:`_FramingError` on junk."""
        try:
            if self._keep_alive_timeout_s is not None:
                request_line = await asyncio.wait_for(
                    reader.readline(), timeout=self._keep_alive_timeout_s
                )
            else:
                request_line = await reader.readline()
        except asyncio.TimeoutError:
            return None
        except ValueError:
            raise _FramingError("request line exceeds the size limit") from None
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        try:
            parts = request_line.decode("ascii").split()
        except UnicodeDecodeError:
            raise _FramingError("request line is not ASCII") from None
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _FramingError("malformed HTTP request line")
        method, target, version = parts
        headers: Dict[str, str] = {"_http_version": version}
        # One extra iteration beyond the limit for the terminating blank
        # line, so a request with exactly max_header_count headers passes.
        for _ in range(self._max_header_count + 1):
            try:
                line = await reader.readline()
            except ValueError:
                raise _FramingError("header line exceeds the size limit") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _FramingError("malformed HTTP header line")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _FramingError("too many HTTP headers")
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _FramingError("chunked request bodies are not supported")
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise _FramingError("Content-Length is not an integer") from None
            if length < 0:
                raise _FramingError("Content-Length is negative")
            if length > self._max_body_bytes:
                raise _FramingError(
                    f"request body exceeds the {self._max_body_bytes}-byte limit"
                )
            if length:
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return None  # peer hung up mid-body
        path, _, query_string = target.partition("?")
        return method, path, query_string, headers, body

    @staticmethod
    def _wants_keep_alive(headers: Dict[str, str]) -> bool:
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            return False
        if headers.get("_http_version") == "HTTP/1.0":
            return "keep-alive" in connection
        return True  # HTTP/1.1 default

    def _negotiate_accept(self, header: Optional[str]) -> str:
        """Pick the response encoding from the ``Accept`` header.

        Full media-range negotiation over the registered encoders:
        comma-separated ranges with ``q`` values; ``*/*`` (and
        ``application/*``) mean "anything", which negotiation answers with
        JSON; the highest ``q`` wins and the first-listed range wins ties.
        No header — or one with no parseable range — keeps the JSON
        default; a header that explicitly rules out every registered
        encoder is a 406 :class:`NotAcceptableError`.
        """
        if header is None:
            return JSON_CONTENT_TYPE
        best: Optional[str] = None
        best_q = 0.0
        saw_range = False
        for item in header.split(","):
            fields = item.split(";")
            media = fields[0].strip().lower()
            if not media:
                continue
            saw_range = True
            q = 1.0
            for param in fields[1:]:
                name, _, value = param.strip().partition("=")
                if name.strip().lower() == "q":
                    try:
                        q = float(value)
                    except ValueError:
                        q = 0.0
            if q <= 0.0:
                continue  # q=0 means "never send me this"
            if media in ("*/*", "application/*"):
                candidate = JSON_CONTENT_TYPE
            elif media in self._encoders:
                candidate = media
            else:
                continue
            if q > best_q:
                best, best_q = candidate, q
        if best is not None:
            return best
        if not saw_range:
            return JSON_CONTENT_TYPE
        raise NotAcceptableError(
            f"no registered encoder satisfies Accept '{header}'",
            detail={"supported": sorted(self._encoders)},
        )

    async def _dispatch(
        self,
        method: str,
        path: str,
        query_string: str,
        headers: Dict[str, str],
        body_bytes: bytes,
    ) -> Tuple[int, Any, str, Dict[str, str]]:
        """Route one request; every failure renders as the structured error.

        Errors always render as JSON regardless of the negotiated encoding
        (negotiation itself may be what failed); clients pick their response
        decoder by the ``Content-Type`` header, not by what they asked for.
        """
        try:
            accept = self._negotiate_accept(headers.get("accept"))
            body: Any = None
            if body_bytes:
                content_type = (
                    headers.get("content-type", JSON_CONTENT_TYPE)
                    .split(";")[0]
                    .strip()
                    .lower()
                )
                decoder = self._decoders.get(content_type)
                if decoder is None:
                    raise UnsupportedMediaTypeError(
                        f"no decoder registered for content type '{content_type}'",
                        detail={"supported": sorted(self._decoders)},
                    )
                try:
                    body = decoder(body_bytes)
                except ApiError:
                    # A decoder speaking the structured error model (e.g. the
                    # columnar codec's 400 on a corrupt frame) speaks for
                    # itself; everything else is a generic bad request.
                    raise
                except Exception:
                    raise BadRequestError(
                        f"request body is not valid {content_type}"
                    ) from None
            query = dict(parse_qsl(query_string)) if query_string else None
            response = await self.routes.dispatch(
                method, path, body, query=query, headers=headers
            )
            return response.status, response.body, accept, response.headers or {}
        except Exception as exc:  # noqa: BLE001 — the edge maps everything
            status = status_of(exc)
            if status >= 500:
                logger.error(
                    "request failed",
                    extra={
                        "method": method,
                        "path": path,
                        "status": status,
                        "error_type": type(exc).__name__,
                    },
                    exc_info=True,
                )
            extra_headers: Dict[str, str] = {}
            retry_after_s = getattr(exc, "retry_after_s", None)
            if retry_after_s is not None:
                # Load-shed responses (429/503) tell clients when to come
                # back; integral seconds per RFC 9110, rounded up so a
                # sub-second hint never renders as "retry immediately".
                extra_headers["Retry-After"] = str(
                    max(1, int(math.ceil(retry_after_s)))
                )
            return status, error_payload(exc), JSON_CONTENT_TYPE, extra_headers

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Any,
        content_type: str,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Write one response; ``extra_headers`` come from the handler.

        A handler-supplied ``Content-Type`` overrides negotiation and makes
        a ``str``/``bytes`` body travel raw (how the Prometheus text
        exposition bypasses the JSON encoder); other extra headers are
        emitted verbatim (e.g. ``X-Clipper-Trace-Id``).

        Encoders may return either one ``bytes`` payload or a writev-style
        *list* of byte segments (how the columnar encoder hands back
        zero-copy ndarray views): the head is joined from precomputed
        fragments and the body segments go to the stream with
        ``writelines`` — the body is never concatenated with its headers.
        """
        extra = b""
        if extra_headers:
            override = None
            lines = []
            for name, value in extra_headers.items():
                if name.lower() == "content-type":
                    override = value
                else:
                    lines.append(f"{name}: {value}\r\n")
            if lines:
                extra = "".join(lines).encode("latin-1")
            if override is not None:
                content_type = override
        if isinstance(body, (str, bytes)) and content_type not in self._encoders:
            segments = [body.encode("utf-8") if isinstance(body, str) else body]
        else:
            encoder = self._encoders.get(content_type, _encode_json)
            try:
                payload = encoder(body)
            except Exception:
                # A response the negotiated encoder cannot represent is an
                # internal error; fall back to the JSON error shape.
                content_type = JSON_CONTENT_TYPE
                status = 500
                payload = _encode_json(error_payload(Exception()))
            segments = payload if isinstance(payload, list) else [payload]
        length = sum(len(segment) for segment in segments)
        head = b"".join(
            (
                _head_prefix(status, keep_alive),
                _content_type_line(content_type),
                b"Content-Length: %d\r\n" % length,
                extra,
                b"\r\n",
            )
        )
        writer.write(head)
        writer.writelines(segments)
        await writer.drain()


def create_server(
    query=None,
    admin=None,
    factories: Optional[Mapping[str, Callable[[], object]]] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    columnar: bool = True,
    **server_kwargs: Any,
) -> HttpApiServer:
    """Build the route table over the frontends and wrap it in a server.

    Unless ``columnar=False``, the binary columnar content type
    (:mod:`repro.api.columnar`) is registered alongside JSON, so
    binary-speaking clients negotiate it via ``Accept``/``Content-Type``
    out of the box.

    The frontends are the server's lifecycle owners, query frontend first:
    :meth:`HttpApiServer.start` starts each (all-or-nothing) before binding
    — whatever applications they host at that moment, including ones
    registered after this call, and an ``admin`` frontend's health monitors
    and canary controllers — and :meth:`HttpApiServer.stop` stops them in
    reverse.  Both calls are idempotent on a frontend the operator already
    started, and on applications both frontends host.
    """
    from repro.api.handlers import build_route_table

    routes = build_route_table(query=query, admin=admin, factories=factories)
    server = HttpApiServer(
        routes,
        host=host,
        port=port,
        lifecycle=[f for f in (query, admin) if f is not None],
        **server_kwargs,
    )
    if columnar:
        from repro.api.columnar import register_columnar

        register_columnar(server)
    return server
