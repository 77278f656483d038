"""Async clients for the Clipper REST API.

The application side of the paper's Figure 2: an application never imports
the serving library — it talks to Clipper over REST.  This module is that
application's half of the contract, free of any import from the serving
*engine* (:mod:`repro.core` and friends); the shared modules are the wire
codec (:mod:`repro.rpc.serialization`, numpy-only), the JSON bytes
(:mod:`repro.rpc.jsonwire`) and the HTTP/1.1 framing (:mod:`repro.rpc.http11`,
stdlib-only), because a wire format is precisely a contract both ends must
share:

* :class:`AsyncClipperClient` — the two application verbs, ``predict`` and
  ``update``, plus schema/health introspection.
* :class:`AsyncAdminClient` — the operator verbs of the management API
  (deploy, scale, rollout/rollback, the canary verbs,
  models/health/metrics/routing).

Both speak minimal HTTP/1.1 over a single **keep-alive** connection
(re-established transparently when the server closes it between requests;
framed by :mod:`repro.rpc.http11`, the parser the server's edge runs too),
encode numpy arrays as JSON arrays and ``bytes`` as base64 per the
application schema, and raise **typed exceptions mirroring the server's
structured error model**: the ``code`` field of the wire error selects the
exception class, so ``except UnknownApplication:`` works the same whether
the check failed client-side or three machines away.

A client constructed with ``binary=True`` speaks the **columnar binary
encoding** for ``predict``/``update``: the request body is the RPC layer's
tagged binary frame (ndarray inputs travel as raw buffers, written
writev-style, never JSON-encoded), ``Accept`` offers
``application/x-clipper-columnar`` with JSON at ``q=0.5``, and the response
is decoded by its ``Content-Type``.  Every server speaks both encodings.

The operator verbs are not spelled here: :mod:`repro.api.verbs` states each
one's route and typed fields once, for the server's handlers and for
:class:`AsyncAdminClient`, which gets one method per row.
"""

from __future__ import annotations

import asyncio
import base64
import operator
import random
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.api.verbs import ADMIN_VERBS, API_PREFIX, Verb
from repro.core.exceptions import SerializationError
from repro.rpc import jsonwire as json  # looked up per call: the bench tracer rebinds ``json``
from repro.rpc.http11 import FramingError, Http1Connection, media_type, remember
from repro.rpc.serialization import (
    COLUMNAR_CONTENT_TYPE,
    deserialize,
    serialize_buffers,
    serialized_nbytes,
)


# -- typed exceptions mirroring the wire error model ---------------------------


class ClipperClientError(Exception):
    """Base class for every error raised by the client SDK."""


class TransportError(ClipperClientError):
    """The connection failed before a complete HTTP response arrived."""


class RetryBudgetExceeded(TransportError):
    """Every attempt a call's retry budget allowed failed.

    ``attempts`` is how many times the request hit the wire; ``last_error``
    is the :class:`TransportError` of the final attempt.  Subclasses
    :class:`TransportError`, so callers handling transport failures keep
    working unchanged.
    """

    def __init__(self, message: str, attempts: int, last_error: Exception) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class ApiStatusError(ClipperClientError):
    """The server answered with a structured error payload."""

    def __init__(
        self, status: int, code: str, message: str, detail: Optional[Dict] = None
    ) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.detail = dict(detail or {})


class UnknownApplication(ApiStatusError):
    """The request named an application the server does not host (404)."""


class RouteNotFound(ApiStatusError):
    """The request path matched no route (404)."""


class MalformedRequest(ApiStatusError):
    """The request body was structurally invalid (400)."""


class InvalidInput(ApiStatusError):
    """The input violated the application's declared schema (422)."""


class DeadlineMissed(ApiStatusError):
    """The prediction missed its SLO and the application has no default (504)."""


class ServiceOverloaded(ApiStatusError):
    """The server shed the request under overload (429 + ``Retry-After``)."""


class ManagementConflict(ApiStatusError):
    """An operator verb conflicted with the durable serving record (409)."""


class ServerError(ApiStatusError):
    """The server failed internally (5xx without a more specific code)."""


#: Wire error ``code`` → exception class.  Unknown codes fall back by status.
_ERRORS_BY_CODE = {
    "unknown_application": UnknownApplication,
    "route_not_found": RouteNotFound,
    "method_not_allowed": MalformedRequest,
    "malformed_request": MalformedRequest,
    "unsupported_media_type": MalformedRequest,
    "not_acceptable": MalformedRequest,
    "invalid_input": InvalidInput,
    "invalid_configuration": MalformedRequest,
    "deadline_missed": DeadlineMissed,
    "overloaded": ServiceOverloaded,
    "management_conflict": ManagementConflict,
    "deployment_conflict": ManagementConflict,
    "routing_conflict": ManagementConflict,
    "duplicate_application": ManagementConflict,
}


def error_from_response(status: int, payload: Any) -> ApiStatusError:
    """Build the typed exception for a non-2xx response.

    A body that is not the wire error object (a proxy's own JSON, say) maps
    by its status alone; so does any part of it of the wrong type.
    """
    error = payload.get("error") if isinstance(payload, dict) else None
    error = error if isinstance(error, dict) else {}
    code, message, detail = error.get("code"), error.get("message"), error.get("detail")
    code = code if isinstance(code, str) else "internal"
    message = message if isinstance(message, str) else f"HTTP {status}"
    cls = _ERRORS_BY_CODE.get(code) or (ServerError if status >= 500 else ApiStatusError)
    return cls(status, code, message, detail if isinstance(detail, dict) else None)


# -- wire helpers --------------------------------------------------------------


def encode_input(x: Any) -> Any:
    """Render a query input as its JSON wire value.

    An ndarray stays whole (``jsonwire.dumps`` writes it as its ``tolist()``);
    one in a list or a numpy scalar becomes JSON; ``bytes`` become base64 text
    (the server's schema decodes it); the rest must be JSON-representable.
    """
    if isinstance(x, np.ndarray):
        return x
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (bytes, bytearray, memoryview)):
        return base64.b64encode(bytes(x)).decode("ascii")
    if isinstance(x, (list, tuple)):
        # Recurse only when an element actually needs conversion — plain
        # numeric vectors (the common case) pass through untouched instead
        # of paying one Python call per feature.
        if any(not isinstance(item, (int, float, str)) for item in x):
            return [v.tolist() if isinstance(v, np.ndarray) else encode_input(v) for v in x]
        return list(x)
    return x


def encode_binary_input(x: Any) -> Any:
    """Render a query input for the columnar binary wire encoding.

    Typed arrays and raw bytes travel natively — an ndarray becomes a
    zero-copy buffer segment on the wire and lands server-side as a typed
    array, skipping the JSON number round-trip entirely.  Everything else
    uses its JSON wire value, which the binary frame carries unchanged.
    """
    if isinstance(x, np.ndarray):
        # The serializer wants a contiguous buffer; a no-op for the
        # already-contiguous arrays applications send.
        return np.ascontiguousarray(x)
    if isinstance(x, (bytes, bytearray, memoryview)):
        return bytes(x)
    return encode_input(x)


@dataclass
class PredictionResult:
    """One prediction as returned over the wire."""

    query_id: int
    app_name: str
    output: Any
    confidence: float
    latency_ms: float
    default_used: bool
    models_used: List[str] = field(default_factory=list)
    models_missing: List[str] = field(default_factory=list)
    from_cache: bool = False

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PredictionResult":
        """A response body's result: other keys are ignored, missing ones default."""
        try:
            return cls(*_RESULT_FIELDS(payload))  # the server sends every field
        except KeyError:
            return cls(**{k: v for k, v in payload.items() if k in cls.__dataclass_fields__})


_RESULT_FIELDS = operator.itemgetter(*(f.name for f in fields(PredictionResult)))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transport failures.

    Each call gets its own retry budget of ``max_attempts`` total tries.
    Between retries the client sleeps ``base_delay_s * multiplier**n``
    (capped at ``max_delay_s``), with up to ``jitter`` of the delay
    subtracted at random so a fleet of recovering clients does not
    reconnect in lockstep.

    What is retriable depends on how far the previous attempt got, never
    on the policy: a **connect failure** (nothing sent) is retriable for
    every method; a **stale keep-alive** (request sent, zero response
    bytes) is retriable only for GET — a POST may have executed
    server-side and deploying or updating twice is worse than surfacing
    the error; any failure after the first response byte is terminal.
    The exception is a **load-shed response** (429 or 503): the server
    answered without executing the request, so re-issuing is safe for
    every method, and the server's ``Retry-After`` hint (capped at
    ``max_delay_s``) replaces the computed backoff when present.
    When the budget runs out the last failure is surfaced as
    :class:`RetryBudgetExceeded`.  ``RetryPolicy(max_attempts=1)``
    disables retries entirely.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_for(self, retry_index: int, rng: random.Random) -> float:
        """The backoff before retry number ``retry_index`` (0-based)."""
        delay = min(self.base_delay_s * self.multiplier**retry_index, self.max_delay_s)
        if self.jitter:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


#: (status line, Connection, Content-Type) -> (status, close, columnar body).
_RESPONSE_HEADS: Dict[Tuple[str, Optional[str], Optional[str]], Tuple[int, bool, bool]] = {}


def _response_head(
    status_line: str, connection: Optional[str], content_type: Optional[str]
) -> Tuple[int, bool, bool]:
    """Status, close flag and decoder choice of a response head."""
    parts = status_line.split(maxsplit=2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/") or not parts[1].isdigit():
        raise FramingError(f"malformed status line: {status_line!r}")
    close = "close" in (connection or "").lower()
    return int(parts[1]), close, media_type(content_type or "") == COLUMNAR_CONTENT_TYPE


class _StaleConnection(Exception):
    """The server closed the keep-alive connection before answering at all."""


class _HttpConnection:
    """One keep-alive HTTP/1.1 connection with transparent re-connect.

    Transient failures are retried under the client's :class:`RetryPolicy`
    (bounded exponential backoff with jitter, one budget per call).  How far
    an attempt got decides what is safe to retry: a connect failure (nothing
    sent) retries for every method; the idle keep-alive race (request sent,
    zero response bytes) retries only **GET** requests — a POST that may
    have reached the server is never re-issued, deploy or update executing
    twice is worse than surfacing a :class:`TransportError` — and once the
    first response byte has been read, any failure is terminal for the same
    reason.  An exhausted budget surfaces as :class:`RetryBudgetExceeded`.
    """

    def __init__(
        self, host: str, port: int, retry_policy: Optional[RetryPolicy] = None
    ) -> None:
        self.host = host
        self.port = port
        self.retry_policy = retry_policy or RetryPolicy()
        self._rng = random.Random()
        self._protocol: Optional[Http1Connection] = None
        # (method, path, columnar) -> the request head up to the Content-Length
        # digits; bounded, paths being built from caller-supplied names.
        self._heads: Dict[Tuple[str, str, bool], bytes] = {}

    @property
    def is_connected(self) -> bool:
        protocol = self._protocol
        return (
            protocol is not None
            and not protocol.eof
            and not protocol.transport.is_closing()
        )

    async def connect(self) -> None:
        if self.is_connected:
            return
        self._reset()
        try:
            # Responses are as large as the server makes them: no body limit.
            _, self._protocol = await asyncio.get_running_loop().create_connection(
                lambda: Http1Connection(max_body_bytes=sys.maxsize), self.host, self.port
            )
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from None

    async def close(self) -> None:
        self._reset()

    def _reset(self) -> None:
        protocol, self._protocol = self._protocol, None
        if protocol is not None:
            protocol.close()

    async def request(
        self, method: str, path: str, body: Any = None, binary: bool = False
    ) -> Tuple[int, Any]:
        """Issue one request, returning ``(status, decoded payload)``.

        ``binary=True`` sends the body as a columnar binary frame and
        offers the columnar encoding in ``Accept``; the response is decoded
        by its ``Content-Type`` either way.
        """
        policy = self.retry_policy
        attempts = 0
        while True:
            attempts += 1
            try:
                if not self.is_connected:
                    await self.connect()
            except TransportError as exc:
                # Nothing was sent: safe to retry for every method.
                failure, retriable = exc, True
            else:
                try:
                    status, payload, retry_after = await self._round_trip(
                        method, path, body, binary
                    )
                except _StaleConnection as exc:
                    # The request went out but nothing of the response
                    # arrived.  Only an idempotent GET is re-issued; a POST
                    # may have executed server-side and must not run twice.
                    self._reset()
                    failure = TransportError(
                        f"{method} {path} failed: {exc.args[0]}"
                    )
                    retriable = method.upper() == "GET"
                except (FramingError, OSError) as exc:
                    # The connection died mid-response, or what arrived is not
                    # a response: the request may have executed server-side,
                    # so never re-issue it — and never reuse the connection.
                    self._reset()
                    raise TransportError(
                        f"{method} {path} failed: {exc!r}"
                    ) from None
                else:
                    if status in (429, 503) and attempts < policy.max_attempts:
                        # The server shed the request without executing it, so
                        # re-issuing is safe for every method.  Honor its
                        # Retry-After hint (capped at the policy's max delay);
                        # fall back to the computed backoff when absent.
                        if retry_after is None:
                            delay = policy.delay_for(attempts - 1, self._rng)
                        else:
                            delay = min(retry_after, policy.max_delay_s)
                        if delay > 0:
                            await asyncio.sleep(delay)
                        continue
                    return status, payload
            if not retriable:
                raise failure from None
            if attempts >= policy.max_attempts:
                if attempts == 1:
                    raise failure from None
                raise RetryBudgetExceeded(
                    f"{method} {path} failed after {attempts} attempts: {failure}",
                    attempts=attempts,
                    last_error=failure,
                ) from None
            delay = policy.delay_for(attempts - 1, self._rng)
            if delay > 0:
                await asyncio.sleep(delay)

    async def _round_trip(
        self, method: str, path: str, body: Any, binary: bool = False
    ) -> Tuple[int, Any, Optional[float]]:
        columnar = binary and body is not None
        if columnar:
            # Encode before touching the connection: an unencodable body
            # must fail cleanly, not poison the keep-alive stream.
            try:
                segments = serialize_buffers(body)
            except SerializationError as exc:
                raise ClipperClientError(
                    f"request body is not encodable as columnar: {exc}"
                ) from None
            length = serialized_nbytes(segments)
            content_type = COLUMNAR_CONTENT_TYPE
            accept = f"{COLUMNAR_CONTENT_TYPE}, application/json;q=0.5"
        else:
            payload = b""
            if body is not None:
                payload = json.dumps(body)
            segments = [payload] if payload else []
            length = len(payload)
            content_type = "application/json"
            accept = "application/json"
        head = self._heads.get((method, path, columnar))
        if head is None:
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Accept: {accept}\r\n"
                f"Content-Type: {content_type}\r\n"
                "Content-Length: "
            ).encode("ascii")
            remember(self._heads, (method, path, columnar), head)
        protocol = self._protocol
        # The body is never joined with the head: binary segments (which
        # include zero-copy views of the caller's arrays) go out writev-style.
        protocol.transport.writelines([b"%b%d\r\n\r\n" % (head, length), *segments])
        if protocol.write_paused:
            await protocol.drain()
        message = await protocol.read_message()
        if message is None:
            # Not one response byte arrived — the server closed the idle
            # connection; an incomplete request is discarded server-side.
            raise _StaleConnection("server closed the idle connection")
        status_line, headers, data = message
        key = (status_line, headers.get("connection"), headers.get("content-type"))
        status, close, columnar = _RESPONSE_HEADS.get(key) or remember(
            _RESPONSE_HEADS, key, _response_head(*key)
        )
        if close:
            self._reset()
        retry_after: Optional[float] = None
        if status in (429, 503):
            # Delay-seconds form only (the server never sends HTTP dates);
            # an unparsable value is ignored rather than failing the call.
            raw = headers.get("retry-after")
            if raw:
                try:
                    retry_after = max(0.0, float(raw))
                except ValueError:
                    retry_after = None
        if not data:
            return status, None, retry_after
        # The response's own Content-Type picks the decoder — errors render
        # as JSON even on a binary exchange.
        if columnar:
            try:
                return status, deserialize(data), retry_after
            except SerializationError as exc:
                raise TransportError(
                    f"{method} {path}: undecodable columnar response: {exc}"
                ) from None
        try:
            return status, json.loads(data), retry_after
        except (ValueError, RecursionError) as exc:
            # Not JSON (an HTML error page from a proxy, invalid UTF-8, ...):
            # UnicodeDecodeError and JSONDecodeError are ValueErrors.
            raise TransportError(
                f"{method} {path}: undecodable JSON response: {exc}"
            ) from None


class _BaseAsyncClient:
    """Shared plumbing: one connection, error mapping, context management."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        retry_policy: Optional[RetryPolicy] = None,
        binary: bool = False,
    ) -> None:
        self._conn = _HttpConnection(host, port, retry_policy=retry_policy)
        #: Whether predict/update speak the columnar binary encoding.
        self.binary = bool(binary)

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._conn.retry_policy

    async def connect(self) -> None:
        """Eagerly open the connection (otherwise opened on first request)."""
        await self._conn.connect()

    async def close(self) -> None:
        await self._conn.close()

    async def __aenter__(self):
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _call(
        self, method: str, path: str, body: Any = None, binary: bool = False
    ) -> Any:
        status, payload = await self._conn.request(method, path, body, binary)
        if status >= 400:
            raise error_from_response(status, payload)
        return payload


class AsyncClipperClient(_BaseAsyncClient):
    """The application's view of Clipper: ``predict`` and ``update`` over REST.

    Constructed with ``binary=True``, the two application verbs speak the
    columnar binary encoding (ndarray inputs travel as raw typed buffers);
    introspection verbs always speak JSON.
    """

    async def predict(
        self,
        app_name: str,
        x: Any,
        user_id: Optional[str] = None,
        latency_slo_ms: Optional[float] = None,
    ) -> PredictionResult:
        """Request a prediction from the named application."""
        binary = self.binary
        body: Dict[str, Any] = {
            "input": encode_binary_input(x) if binary else encode_input(x)
        }
        if user_id is not None:
            body["user_id"] = user_id
        if latency_slo_ms is not None:
            body["latency_slo_ms"] = latency_slo_ms
        status, payload = await self._conn.request(
            "POST", f"{API_PREFIX}/{app_name}/predict", body, binary
        )
        if status >= 400:
            raise error_from_response(status, payload)
        return PredictionResult.from_payload(payload)

    async def update(
        self,
        app_name: str,
        x: Any,
        label: Any,
        user_id: Optional[str] = None,
    ) -> None:
        """Send ground-truth feedback for an earlier prediction."""
        binary = self.binary
        encode = encode_binary_input if binary else encode_input
        body: Dict[str, Any] = {"input": encode(x), "label": encode(label)}
        if user_id is not None:
            body["user_id"] = user_id
        await self._call("POST", f"{API_PREFIX}/{app_name}/update", body, binary)

    async def applications(self) -> List[Dict[str, Any]]:
        """The schemas of every application the server hosts."""
        payload = await self._call("GET", f"{API_PREFIX}/applications")
        return payload["applications"]

    async def schema(self, app_name: str) -> Dict[str, Any]:
        """The declared serving contract of one application."""
        return await self._call("GET", f"{API_PREFIX}/{app_name}/schema")

    async def health(self) -> Dict[str, Any]:
        """Server liveness plus the hosted application names."""
        return await self._call("GET", f"{API_PREFIX}/health")


def bind_verbs(cls: type, verbs: Iterable[Verb]) -> type:
    """Give ``cls`` one coroutine method per verb row.

    Each binds its arguments as ``name(app_name, ..., *fields)`` does
    (:meth:`Verb.request`), issues the row's request and returns the part of
    the response body the row names.
    """

    def bound(verb: Verb):
        async def method(self, *args: Any, **kwargs: Any) -> Any:
            path, body = verb.request(*args, **kwargs)
            payload = await self._call(verb.method, path, body)
            return payload if verb.returns is None else payload[verb.returns]

        method.__name__ = verb.name
        method.__qualname__ = f"{cls.__name__}.{verb.name}"
        method.__doc__ = verb.doc
        return method

    for verb in verbs:
        setattr(cls, verb.name, bound(verb))
    return cls


class AsyncAdminClient(_BaseAsyncClient):
    """The operator's view: one method per row of :data:`ADMIN_VERBS`.

    ``deploy(app_name, model_name, factory, version=None, ...)``,
    ``rollout(app_name, model_name, version)`` and so on — positional
    arguments follow the row's path parameters, then its fields in order.
    """


bind_verbs(AsyncAdminClient, ADMIN_VERBS)
