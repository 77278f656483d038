"""Stdlib asyncio HTTP/1.1 binding for the versioned route table.

The thinnest possible REST edge: :class:`HttpApiServer` hosts a
:class:`~repro.api.routes.RouteTable` on one
:class:`~repro.rpc.http11.Http1Connection` protocol per socket — no
framework, no new dependencies.  It implements exactly what the serving
surface needs:

* HTTP/1.1 request parsing by the single-pass parser it shares with the
  client SDK (:mod:`repro.rpc.http11`: bounded head, header count and body;
  digits-only ``Content-Length``; chunked refused) — a request that fails
  to parse gets one structured 400 and the connection is closed,
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

Application lifecycle belongs to the frontends the server was built over:
each is started (all-or-nothing, idempotent) *before* the listening socket
binds, so a partial start never leaves a listener accepting traffic it
cannot serve, and stopped in reverse order after the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qsl

from repro.api import columnar
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
from repro.rpc.http11 import MEMO_MAX, FramingError, Http1Connection, media_type

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

#: Response heads up to the ``Content-Length`` digits, by (status, keep-alive,
#: content type): a response formats one number and joins.  Bounded — a
#: handler may name any content type.
_HEADS: Dict[Tuple[int, bool, str], bytes] = {}


def _head(status: int, keep_alive: bool, content_type: str) -> bytes:
    key = (status, keep_alive, content_type)
    head = _HEADS.get(key)
    if head is None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Content-Length: "
        ).encode("latin-1")
        if len(_HEADS) < MEMO_MAX:
            _HEADS[key] = head
    return head


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
        # Every open connection, by the task serving it.
        self._connections: Dict[asyncio.Task, Http1Connection] = {}
        self._draining = False
        self._inflight = 0
        # Created by drain() while requests are mid-dispatch; resolved by the
        # last of them to finish.
        self._idle: Optional[asyncio.Future] = None
        # Accept header -> negotiated encoding (see _dispatch).
        self._accepts: Dict[Optional[str], str] = {}
        # The edge's codec pair: requests select the decoder through
        # ``Content-Type`` and the encoder through ``Accept``.
        self._encoders: Dict[str, Callable[[Any], Any]] = {
            JSON_CONTENT_TYPE: _encode_json,
            columnar.COLUMNAR_CONTENT_TYPE: columnar.encode_columnar,
        }
        self._decoders: Dict[str, Callable[[bytes], Any]] = {
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
            self._server = await asyncio.get_running_loop().create_server(
                lambda: Http1Connection(
                    self._max_body_bytes, self._max_header_count, self._on_connection
                ),
                host=self.host,
                port=self._requested_port,
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
        """Close the listener and connections, then stop the lifecycle owners."""
        if self._server is None:
            return
        self._server.close()
        for conn in list(self._connections.values()):
            conn.close()
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

    def _on_connection(self, conn: Http1Connection) -> None:
        task = asyncio.get_running_loop().create_task(self._serve_connection(conn))
        self._connections[task] = conn
        task.add_done_callback(self._on_connection_done)

    def _on_connection_done(self, task: asyncio.Task) -> None:
        del self._connections[task]
        if not task.cancelled() and task.exception() is not None:
            # _dispatch maps every handler failure to a response; this is a
            # defect in the edge itself.  The connection is already closed.
            logger.error("connection handler failed", exc_info=task.exception())

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
                method, path, query_string, headers, body_bytes = request
                keep_alive = self._wants_keep_alive(headers) and not self._draining
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

    async def _read_request(
        self, conn: Http1Connection
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        """Parse one request; None on clean EOF, :class:`FramingError` on junk."""
        message = await conn.read_message(self._keep_alive_timeout_s)
        if message is None:
            return None
        request_line, headers, body = message
        parts = request_line.split()
        if (
            len(parts) != 3
            or not parts[2].startswith("HTTP/")
            or not request_line.isascii()
        ):
            raise FramingError("malformed HTTP request line")
        method, target, headers["_http_version"] = parts
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
            # Clients send the same Accept value request after request:
            # negotiate each once.  Bounded, the values being the peer's.
            raw_accept = headers.get("accept")
            accept = self._accepts.get(raw_accept)
            if accept is None:
                accept = self._negotiate_accept(raw_accept)
                if len(self._accepts) < MEMO_MAX:
                    self._accepts[raw_accept] = accept
            body: Any = None
            if body_bytes:
                content_type = media_type(headers.get("content-type", JSON_CONTENT_TYPE))
                decoder = self._decoders.get(content_type)
                if decoder is None:
                    raise UnsupportedMediaTypeError(
                        f"no decoder for content type '{content_type}'",
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
        head = b"%b%d\r\n%b\r\n" % (_head(status, keep_alive, content_type), length, extra)
        conn.transport.writelines([head, *segments])
        if conn.write_paused:
            await conn.drain()


def create_server(
    query=None,
    admin=None,
    factories: Optional[Mapping[str, Callable[[], object]]] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs: Any,
) -> HttpApiServer:
    """Build the route table over the frontends and wrap it in a server.

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
    return HttpApiServer(
        routes,
        host=host,
        port=port,
        lifecycle=[f for f in (query, admin) if f is not None],
        **server_kwargs,
    )
