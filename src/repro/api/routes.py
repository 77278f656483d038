"""Versioned route table mapping REST paths onto handler objects.

One registry owns the entire external surface: the application verbs
(``/api/v1/<app>/predict``, ``/api/v1/<app>/update``) and the admin verb set
(deploy, undeploy, scale, rollout, rollback, the canary verbs, models,
health, metrics, routing).  The table is transport-agnostic — a handler is
just an async callable ``handler(params, body) -> ApiResponse`` — so the
same routes serve the stdlib HTTP binding (:mod:`repro.api.http`), tests
calling :meth:`RouteTable.dispatch` directly, and any future binding (e.g. a
binary columnar transport) without re-registering anything.

Patterns use ``{name}`` placeholders matched per path segment::

    table.add("POST", "/api/v1/{app}/predict", "predict", handler)
    route, params = table.match("POST", "/api/v1/digits/predict")
    # params == {"app": "digits"}

Versioning is part of the path (``API_PREFIX``): a future ``/api/v2`` tree
can register alongside v1 in the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.api.errors import MethodNotAllowedError, RouteNotFoundError

#: Current (and only) API version; every built-in route lives under it.
API_VERSION = "v1"
API_PREFIX = f"/api/{API_VERSION}"

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
    return tuple(part for part in path.strip("/").split("/"))


def _is_param(segment: str) -> bool:
    return segment.startswith("{") and segment.endswith("}")


class RouteTable:
    """The one registry of every externally callable verb."""

    def __init__(self) -> None:
        self._routes: List[Route] = []
        # (segment count, positions of the literal segments) -> literal
        # segments -> [(registration order, route)].  A request looks its own
        # literals up once per pattern shape instead of trying every route.
        self._index: Dict[tuple, Dict[tuple, List[Tuple[int, Route]]]] = {}

    def add(self, method: str, pattern: str, name: str, handler: Handler) -> Route:
        """Register a route; duplicate (method, pattern) pairs are rejected."""
        method = method.upper()
        segments = _split_path(pattern)
        literal_at = tuple(i for i, s in enumerate(segments) if not _is_param(s))
        # Two patterns that differ only in parameter names match the same
        # requests: they share a bucket, which makes that the duplicate check.
        bucket = self._index.setdefault((len(segments), literal_at), {}).setdefault(
            tuple(segments[i] for i in literal_at), []
        )
        if any(route.method == method for _, route in bucket):
            raise ValueError(f"route {method} {pattern} is already registered")
        route = Route(
            method=method,
            pattern=pattern,
            name=name,
            handler=handler,
            segments=segments,
        )
        bucket.append((len(self._routes), route))
        self._routes.append(route)
        return route

    def routes(self) -> List[Route]:
        """Every registered route, in registration order."""
        return list(self._routes)

    def match(self, method: str, path: str) -> Tuple[Route, Dict[str, str]]:
        """Resolve a request to (route, path params).

        Raises :class:`RouteNotFoundError` when no pattern matches the path
        and :class:`MethodNotAllowedError` when a pattern matches but not
        for this method (the HTTP binding turns these into 404/405).
        """
        parts = _split_path(path)
        method = method.upper()
        candidates: List[Tuple[int, Route]] = []
        for (count, literal_at), buckets in self._index.items():
            if count == len(parts):
                candidates += buckets.get(tuple(parts[i] for i in literal_at), ())
        if len(candidates) > 1:
            candidates.sort(key=lambda entry: entry[0])  # registration order
        allowed: List[str] = []
        for _, route in candidates:
            params = route.match_path(parts)
            if params is None:
                continue
            if route.method == method:
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
    ) -> ApiResponse:
        """Resolve and invoke a handler in-process (no HTTP framing).

        Tests and embedders use this to drive the exact handler/validation
        path HTTP callers hit, minus the socket.  ``query`` (URL query
        parameters) merges into the handler params with path parameters
        winning on collision; a caller-supplied ``X-Clipper-Trace-Id``
        header surfaces as the reserved ``_trace_id`` param so handlers can
        force-sample the query's trace.
        """
        route, params = self.match(method, path)
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
