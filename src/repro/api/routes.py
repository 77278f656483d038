"""Versioned route table mapping REST paths onto handler objects.

One registry owns the entire external surface: the application verbs
(``/api/v1/<app>/predict``, ``/api/v1/<app>/update``) and the admin verb set
(deploy, undeploy, scale, rollout, rollback, the canary verbs, models,
health, metrics, routing).  A handler is an async callable ``handler(params,
body) -> ApiResponse``: the same routes serve the HTTP binding
(:mod:`repro.api.http`) and tests calling :meth:`RouteTable.dispatch`.

Patterns use ``{name}`` placeholders matched per path segment::

    table.add("POST", "/api/v1/{app}/predict", "predict", handler)
    route, params = table.match("POST", "/api/v1/digits/predict")
    # params == {"app": "digits"}

Versioning is part of the path (:data:`repro.api.verbs.API_PREFIX`): a
future ``/api/v2`` tree can register alongside v1 in the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.api.errors import MethodNotAllowedError, RouteNotFoundError
from repro.rpc.http11 import remember

#: A handler takes the path parameters and the decoded JSON body (None for
#: bodiless requests) and returns an :class:`ApiResponse`.
Handler = Callable[[Dict[str, str], Any], Awaitable["ApiResponse"]]


@dataclass
class ApiResponse:
    """Transport-agnostic handler result: a status code and a JSON-able body."""

    status: int = 200
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Route:
    """One entry of the route table: a verb bound to a handler object."""

    method: str
    pattern: str
    name: str
    handler: Handler
    #: Pre-split pattern segments; ``{x}`` segments capture into params.
    segments: Tuple[str, ...] = ()
    #: Path params -> the body field decoded as a vector (None: none).
    vector: Optional[Callable[[Dict[str, str]], Optional[str]]] = None

    def match_path(self, parts: Tuple[str, ...]) -> Optional[Dict[str, str]]:
        """Path params when ``parts`` matches this route's pattern, else None."""
        if len(parts) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for segment, part in zip(self.segments, parts):
            if _is_param(segment):
                if not part:
                    return None
                params[segment[1:-1]] = part
            elif segment != part:
                return None
        return params


def _split_path(path: str) -> Tuple[str, ...]:
    return tuple(path.strip("/").split("/"))


def _is_param(segment: str) -> bool:
    return segment.startswith("{") and segment.endswith("}")


def _shape(segments: Tuple[str, ...]) -> Tuple[Optional[str], ...]:
    """What a pattern matches: its literal segments, parameters being alike."""
    return tuple(None if _is_param(segment) else segment for segment in segments)


class RouteTable:
    """The one registry of every externally callable verb."""

    def __init__(self) -> None:
        self._routes: List[Route] = []
        # (method, path) -> what match() found; clients repeat their paths.
        # Bounded by ``remember``, the paths being the peer's.  Never stale:
        # a route added later loses to every earlier one, and none is ever
        # removed.
        self._matched: Dict[Tuple[str, str], Tuple[Route, Dict[str, str]]] = {}

    def add(self, method: str, pattern: str, name: str, handler: Handler, vector=None) -> Route:
        """Register a route; duplicate (method, pattern) pairs are rejected.

        Two patterns that differ only in parameter names match the same
        requests, so they are duplicates too.  See :attr:`Route.vector`.
        """
        method = method.upper()
        segments = _split_path(pattern)
        shape = _shape(segments)
        if any(r.method == method and _shape(r.segments) == shape for r in self._routes):
            raise ValueError(f"route {method} {pattern} is already registered")
        route = Route(method, pattern, name, handler, segments, vector)
        self._routes.append(route)
        return route

    def routes(self) -> List[Route]:
        """Every registered route, in registration order."""
        return list(self._routes)

    def match(self, method: str, path: str) -> Tuple[Route, Dict[str, str]]:
        """Resolve a request to (route, path params).

        The first route registered that matches wins.  Raises
        :class:`RouteNotFoundError` when no pattern matches the path and
        :class:`MethodNotAllowedError` when a pattern matches but not for
        this method (the HTTP binding turns these into 404/405).
        """
        key = (method, path)
        found = self._matched.get(key)
        if found is not None:
            return found[0], dict(found[1])
        parts = _split_path(path)
        method = method.upper()
        allowed: List[str] = []
        for route in self._routes:
            params = route.match_path(parts)
            if params is None:
                continue
            if route.method == method:
                remember(self._matched, key, (route, dict(params)))
                return route, params
            allowed.append(route.method)
        if allowed:
            raise MethodNotAllowedError(
                f"{method} is not allowed on {path}",
                detail={"allowed": sorted(set(allowed))},
            )
        raise RouteNotFoundError(f"no route matches {path}")

    async def dispatch(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
        decode: Optional[Callable[[bytes, Optional[str]], Any]] = None,
    ) -> ApiResponse:
        """Resolve and invoke a handler in-process (no HTTP framing).

        Tests and embedders use this to drive the exact handler/validation
        path HTTP callers hit, minus the socket.  ``query`` (URL query
        parameters) merges into the handler params with path parameters
        winning on collision; a caller-supplied ``X-Clipper-Trace-Id``
        header surfaces as the reserved ``_trace_id`` param so handlers can
        force-sample the query's trace.  With ``decode``, a ``body`` given is
        bytes that ``decode(body, field)`` reads, ``field`` the route's vector.
        """
        route, params = self.match(method, path)
        if decode is not None and body is not None:
            body = decode(body, route.vector(params) if route.vector else None)
        if query:
            merged = dict(query)
            merged.update(params)
            params = merged
        if headers:
            trace_id = headers.get("x-clipper-trace-id")
            if trace_id:
                params["_trace_id"] = trace_id
        return await route.handler(params, body)

    def describe(self) -> List[Dict[str, str]]:
        """JSON-friendly listing of the surface (method, path, name)."""
        return [
            {"method": route.method, "path": route.pattern, "name": route.name}
            for route in self._routes
        ]
