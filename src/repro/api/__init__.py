"""The transport-agnostic external API layer of the reproduction.

Layers, bottom to top:

``repro.api.schema``
    Typed per-application contracts (declared input type/shape, default
    output, SLO) plus the JSON wire codec — the single validation path every
    caller crosses.
``repro.api.errors``
    The structured error model: every library exception carries a stable
    ``code`` and an ``http_status``; :func:`error_payload` renders them as
    the wire error object.
``repro.api.routes``
    The versioned route table binding ``/api/v1/...`` paths to handler
    objects, independent of any transport.
``repro.api.columnar``
    The binary columnar content type: the RPC layer's zero-copy wire
    format as the edge's second encoding beside JSON.
``repro.api.verbs``
    The operator verbs, each written once: route, typed body fields,
    frontend call and response, read by the handlers and the client SDK.
``repro.api.handlers``
    Builds the route table over a :class:`~repro.core.frontend.QueryFrontend`
    and a :class:`~repro.management.frontend.ManagementFrontend`.
``repro.api.http``
    The stdlib asyncio HTTP/1.1 binding hosting the route table.

Only the leaf modules are imported eagerly; the handler/HTTP layers (which
import the frontends) load on first attribute access, keeping the package
importable from inside :mod:`repro.core` without cycles.
"""

from repro.api.errors import (
    ApiError,
    BadRequestError,
    DuplicateApplicationError,
    MethodNotAllowedError,
    NotAcceptableError,
    RouteNotFoundError,
    UnknownApplicationError,
    UnsupportedMediaTypeError,
    ValidationError,
    error_payload,
)
from repro.api.routes import API_PREFIX, API_VERSION, ApiResponse, Route, RouteTable
from repro.api.schema import INPUT_TYPES, ApplicationSchema, json_safe

__all__ = [
    "API_PREFIX",
    "API_VERSION",
    "ApiError",
    "ApiResponse",
    "ApplicationSchema",
    "BadRequestError",
    "COLUMNAR_CONTENT_TYPE",
    "DuplicateApplicationError",
    "HttpApiServer",
    "INPUT_TYPES",
    "MethodNotAllowedError",
    "NotAcceptableError",
    "Route",
    "RouteNotFoundError",
    "RouteTable",
    "UnknownApplicationError",
    "UnsupportedMediaTypeError",
    "ValidationError",
    "build_route_table",
    "create_server",
    "error_payload",
    "json_safe",
]

#: Names resolved lazily to their defining module (PEP 562): these modules
#: import the frontends, which in turn import this package's leaf modules.
_LAZY = {
    "HttpApiServer": "repro.api.http",
    "create_server": "repro.api.http",
    "build_route_table": "repro.api.handlers",
    "COLUMNAR_CONTENT_TYPE": "repro.api.columnar",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute '{name}'")
    import importlib

    return getattr(importlib.import_module(module_name), name)
