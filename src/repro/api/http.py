"""Stdlib asyncio HTTP/1.1 binding for the versioned route table.

The thinnest possible REST edge: :class:`HttpApiServer` hosts a
:class:`~repro.api.routes.RouteTable` on one
:class:`~repro.rpc.http11.Http1Connection` protocol per socket — no
framework; JSON bytes go through :mod:`repro.rpc.jsonwire`, which uses the
optional ``orjson`` package when it is installed and the stdlib otherwise,
with the same observable result.  It implements exactly what the serving
surface needs:

* HTTP/1.1 request parsing by the single-pass parser it shares with the
  client SDK (:mod:`repro.rpc.http11`: bounded head, header count and body;
  digits-only ``Content-Length``; chunked refused) — a request that fails
  to parse gets one structured 400 and the connection is closed,
* **inline serving** (:meth:`~repro.rpc.http11.Http1Connection.serve`): a
  cached predict is read, dispatched and answered inside the socket callback
  that completed it, and only a request that waits on something else (a
  miss, a paused write) moves to a task; a request line and ``Connection``
  value, and an ``Accept`` / ``Content-Type`` pair, are each interpreted once,
* **keep-alive** connections (``Connection: close`` honoured; HTTP/1.0
  defaults to close) so clients amortize the TCP handshake across queries;
  pipelined requests are answered in order,
* **flow control**: a response is awaited only while the transport is over
  its high-water mark, and reading pauses while a request is in flight and
  more than one head + body limit is already buffered,
* a fixed codec pair with **content-type negotiation**: JSON (binary inputs
  travel as base64 per the application schema) and the binary columnar
  format (:mod:`repro.api.columnar`), whose responses stream out as
  zero-copy buffer segments.  ``Content-Type`` picks the request decoder
  (anything else is a 415); proper ``Accept`` handling — multi-valued
  headers, ``q`` values, ``*/*``, 406 when nothing matches — picks the
  response encoder, JSON by default,
* the structured error model: every failure — framing, routing, validation,
  serving — renders as ``{"error": {code, status, message, detail}}``.

Application lifecycle belongs to the one frontend the server was built
over: it is started (all-or-nothing, idempotent) *before* the listening
socket binds, so a partial start never leaves a listener accepting traffic
it cannot serve, and stopped after the listener closes.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple
from urllib.parse import parse_qsl

from repro.api import columnar
from repro.api.errors import (
    NotAcceptableError,
    UnsupportedMediaTypeError,
    error_payload,
    status_of,
)
from repro.api.routes import RouteTable
from repro.api.schema import json_safe
from repro.core.exceptions import BadRequestError, SerializationError
from repro.observability.logging import configure_logging, get_logger
from repro.rpc import jsonwire as json  # looked up per call: the bench tracer rebinds ``json``
from repro.rpc.http11 import FramingError, Http1Connection, media_type, remember

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

#: Largest request body the edge reads; a larger one is a 400 and a hang-up.
MAX_BODY_BYTES = 32 * 1024 * 1024
#: How long an idle keep-alive connection may take to send a request head
#: before it is hung up (None: no limit).  Both are read per connection.
KEEP_ALIVE_TIMEOUT_S: Optional[float] = None

#: Response heads up to the ``Content-Length`` digits, by (status, keep-alive,
#: content type): a response formats one number and joins.  Bounded — a
#: handler may name any content type.
_HEADS: Dict[Tuple[int, bool, str], bytes] = {}


def _head(status: int, keep_alive: bool, content_type: str) -> bytes:
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Content-Length: "
    ).encode("latin-1")


def _encode_json(body: Any) -> bytes:
    return json.dumps(json_safe(body), True)  # one walk: json_safe's output is checked


def _decode_json(data: bytes, field: Optional[str] = None) -> Any:
    try:
        return json.loads(data, field)
    except (ValueError, RecursionError):  # invalid UTF-8 or JSON, or nested too deep
        raise BadRequestError(f"request body is not valid {JSON_CONTENT_TYPE}") from None


def _request_line(request_line: str, connection: Optional[str]) -> Tuple[str, str, str, bool]:
    """Method, path, query and keep-alive of a request line and ``Connection``."""
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/") or not request_line.isascii():
        raise FramingError("malformed HTTP request line")
    method, target, version = parts
    path, _, query_string = target.partition("?")
    connection = (connection or "").lower()
    # HTTP/1.1 keeps the connection by default, HTTP/1.0 only when asked.
    keep_alive = "close" not in connection and (
        version != "HTTP/1.0" or "keep-alive" in connection
    )
    return method, path, query_string, keep_alive


class HttpApiServer:
    """Serves a route table over HTTP/1.1 on the asyncio event loop."""

    def __init__(
        self,
        routes: RouteTable,
        host: str = "127.0.0.1",
        port: int = 0,
        frontend: Optional[Any] = None,
    ) -> None:
        self.routes = routes
        self.host = host
        self._requested_port = port
        # The frontend whose start() brings up its applications (and a
        # ManagementFrontend's health and canary sweeps); its start/stop
        # must be all-or-nothing and idempotent.  None: routes only.
        self._frontend = frontend
        self._server: Optional[asyncio.base_events.Server] = None
        # Every open connection.
        self._connections: Set[Http1Connection] = set()
        self._draining = False
        self._inflight = 0
        # Created by drain() while requests are mid-dispatch; resolved by the
        # last of them to finish.
        self._idle: Optional[asyncio.Future] = None
        # (request line, Connection) -> (method, path, query, keep-alive), and
        # (Accept, Content-Type) -> (response type, request type, decoder).
        self._lines: Dict[Tuple[str, Optional[str]], Tuple[str, str, str, bool]] = {}
        self._codecs: Dict[Tuple[Optional[str], Optional[str]], Tuple[str, str, Any]] = {}
        # The edge's codec pair: requests select the decoder through
        # ``Content-Type`` and the encoder through ``Accept``.
        self._encoders: Dict[str, Callable[[Any], Any]] = {
            JSON_CONTENT_TYPE: _encode_json,
            columnar.COLUMNAR_CONTENT_TYPE: columnar.encode_columnar,
        }
        self._decoders: Dict[str, Callable[[bytes, Optional[str]], Any]] = {
            JSON_CONTENT_TYPE: _decode_json,
            columnar.COLUMNAR_CONTENT_TYPE: columnar.decode_columnar,
        }

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
        """Start the frontend, then bind the socket.

        All-or-nothing like the frontend: its own start stops what it brought
        up when it fails, and a failed bind stops the frontend, so **no
        listener is ever bound** to backends that cannot serve and nothing
        is left running behind a failed start.
        """
        if self._server is not None:
            return
        # Idempotent process-wide logging setup: repeat server starts (or
        # multiple servers in one process) never stack duplicate handlers.
        configure_logging()
        try:
            if self._frontend is not None:
                await self._frontend.start()
            self._server = await asyncio.get_running_loop().create_server(
                lambda: Http1Connection(MAX_BODY_BYTES, connected=self._on_connection),
                host=self.host,
                port=self._requested_port,
            )
        except BaseException:
            # Stopping a frontend that never started is a no-op.  Should the
            # stop fail too, its error propagates chained to this one.
            await self._stop_frontend()
            raise
        logger.info("http server started", extra={"host": self.host, "port": self.port})

    async def _stop_frontend(self) -> None:
        if self._frontend is not None:
            await self._frontend.stop()

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
        if self._inflight:
            self._idle = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._idle, timeout=timeout_s)
            except asyncio.TimeoutError:
                pass
            finally:
                self._idle = None
        await self.stop()

    async def stop(self) -> None:
        """Close the listener and connections, then stop the frontend."""
        if self._server is None:
            return
        self._server.close()
        for conn in list(self._connections):
            conn.close()
        try:
            await self._server.wait_closed()
        finally:
            self._server = None
        logger.info("http server stopped", extra={"host": self.host})
        await self._stop_frontend()

    async def __aenter__(self) -> "HttpApiServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------------

    def _on_connection(self, conn: Http1Connection) -> None:
        self._connections.add(conn)
        # _dispatch maps every handler failure to a response: what escapes
        # the loop is a defect in the edge, which asyncio reports (the
        # connection is closed by then).
        conn.serve(self._serve_connection(conn))

    async def _serve_connection(self, conn: Http1Connection) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(conn)
                except FramingError as exc:
                    # The stream cannot be re-synchronized: answer once and
                    # hang up.
                    await self._write_response(
                        conn,
                        400,
                        error_payload(BadRequestError(str(exc))),
                        JSON_CONTENT_TYPE,
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break  # client closed cleanly between requests
                method, path, query_string, keep_alive, headers, body_bytes = request
                keep_alive = keep_alive and not self._draining
                self._inflight += 1
                try:
                    status, body, content_type, extra_headers = await self._dispatch(
                        method, path, query_string, headers, body_bytes
                    )
                    await self._write_response(
                        conn,
                        status,
                        body,
                        content_type,
                        keep_alive=keep_alive,
                        extra_headers=extra_headers,
                    )
                finally:
                    self._inflight -= 1
                    idle = self._idle
                    if not self._inflight and idle is not None and not idle.done():
                        idle.set_result(None)
                if not keep_alive:
                    break
        except ConnectionResetError:
            pass  # peer went away mid-message; nothing to answer
        finally:
            conn.close()
            self._connections.discard(conn)

    async def _read_request(
        self, conn: Http1Connection
    ) -> Optional[Tuple[str, str, str, bool, Mapping[str, str], bytes]]:
        """``(method, path, query, keep-alive, headers, body)``; None on clean
        EOF, :class:`FramingError` on junk."""
        message = await conn.read_message(KEEP_ALIVE_TIMEOUT_S)
        if message is None:
            return None
        request_line, headers, body = message
        key = (request_line, headers.get("connection"))
        line = self._lines.get(key) or remember(self._lines, key, _request_line(*key))
        return (*line, headers, body)

    def _negotiate_accept(self, header: Optional[str]) -> str:
        """Pick the response encoding from the ``Accept`` header.

        Full media-range negotiation over the two encoders:
        comma-separated ranges with ``q`` values; ``*/*`` (and
        ``application/*``) mean "anything", which negotiation answers with
        JSON; the highest ``q`` wins and the first-listed range wins ties.
        No header — or one with no parseable range — keeps the JSON
        default; a header that explicitly rules out both encoders is a 406
        :class:`NotAcceptableError`.
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

    def _negotiate(
        self, accept: Optional[str], content_type: Optional[str]
    ) -> Tuple[str, str, Optional[Callable[[bytes, Optional[str]], Any]]]:
        """Response type, request type and its decoder (or None) of a pair."""
        media = media_type(content_type or JSON_CONTENT_TYPE)
        return self._negotiate_accept(accept), media, self._decoders.get(media)

    async def _dispatch(
        self,
        method: str,
        path: str,
        query_string: str,
        headers: Mapping[str, str],
        body_bytes: bytes,
    ) -> Tuple[int, Any, str, Dict[str, str]]:
        """Route one request; every failure renders as the structured error.

        Errors always render as JSON regardless of the negotiated encoding
        (negotiation itself may be what failed); clients pick their response
        decoder by the ``Content-Type`` header, not by what they asked for.
        """
        try:
            # Clients send the same two values request after request.
            key = (headers.get("accept"), headers.get("content-type"))
            accept, content_type, decoder = self._codecs.get(key) or remember(
                self._codecs, key, self._negotiate(*key)
            )
            if body_bytes and decoder is None:
                raise UnsupportedMediaTypeError(
                    f"no decoder for content type '{content_type}'",
                    detail={"supported": sorted(self._decoders)},
                )
            query = dict(parse_qsl(query_string)) if query_string else None
            response = await self.routes.dispatch(
                method, path, body_bytes or None, query=query, headers=headers, decode=decoder
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
        conn: Http1Connection,
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
        zero-copy ndarray views): the pre-built head takes its
        ``Content-Length`` digits and leaves with the body segments in one
        ``writelines`` — the body is never concatenated with its headers.
        The call awaits only while the transport is over its high-water
        mark, so a peer that stops reading stops this connection's task.
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
        if content_type not in self._encoders and isinstance(body, (str, bytes)):
            segments = [body.encode("utf-8") if isinstance(body, str) else body]
        else:
            encoder = self._encoders.get(content_type, _encode_json)
            try:
                payload = encoder(body)
            except (SerializationError, TypeError, ValueError, OverflowError, RecursionError):
                # A response the negotiated encoder cannot represent is an
                # internal error; fall back to the JSON error shape.
                content_type = JSON_CONTENT_TYPE
                status = 500
                payload = _encode_json(error_payload(Exception()))
            segments = payload if isinstance(payload, list) else [payload]
        length = sum(map(len, segments))
        key = (status, keep_alive, content_type)
        head = _HEADS.get(key) or remember(_HEADS, key, _head(*key))
        head = b"%b%d\r\n%b\r\n" % (head, length, extra)
        conn.transport.writelines([head, *segments])
        if conn.write_paused:
            await conn.drain()


def create_server(
    query,
    factories: Optional[Mapping[str, Callable[[], object]]] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> HttpApiServer:
    """Build the route table over one frontend and wrap it in a server.

    The operator verbs are served when ``query`` is a
    :class:`~repro.management.frontend.ManagementFrontend`.  The frontend is
    the server's lifecycle owner: :meth:`HttpApiServer.start` starts it
    (all-or-nothing) before binding — whatever applications it hosts at
    that moment, including ones registered after this call, and a
    management frontend's health and canary sweeps — and
    :meth:`HttpApiServer.stop` stops it.  Both calls are idempotent on a
    frontend the operator already started.
    """
    from repro.api.handlers import build_route_table

    routes = build_route_table(query, factories)
    return HttpApiServer(routes, host=host, port=port, frontend=query)
