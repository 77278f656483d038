"""Structured error model of the REST surface.

Every library exception carries a machine-readable ``code`` and an
``http_status`` (see :mod:`repro.core.exceptions`); this module renders them
into the wire payload both frontends return::

    {"error": {"code": "invalid_input", "status": 422,
               "message": "...", "detail": {...}}}

and defines the two errors that only exist at the routing edge (no route
matched; route exists but not for this method).  The mapping is total: any
exception that is not a :class:`~repro.core.exceptions.ClipperError` renders
as an opaque ``internal`` error so tracebacks never cross the boundary.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.exceptions import ClipperError


class RouteNotFoundError(ClipperError):
    """No route in the table matches the request path."""

    code = "route_not_found"
    http_status = 404


class MethodNotAllowedError(ClipperError):
    """A route matches the path but not the request method."""

    code = "method_not_allowed"
    http_status = 405


class UnsupportedMediaTypeError(ClipperError):
    """The request body's content type has no registered decoder."""

    code = "unsupported_media_type"
    http_status = 415


class NotAcceptableError(ClipperError):
    """None of the media types the ``Accept`` header lists has an encoder."""

    code = "not_acceptable"
    http_status = 406


def status_of(exc: BaseException) -> int:
    """The HTTP status an exception maps to (500 for non-library errors)."""
    return getattr(exc, "http_status", 500)


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Render any exception as the structured wire error object."""
    if isinstance(exc, ClipperError):
        code = exc.code
        status = exc.http_status
        message = str(exc)
        detail = dict(getattr(exc, "detail", {}) or {})
    else:
        # Never leak internals of an unexpected failure across the edge.
        code, status, message, detail = "internal", 500, "internal server error", {}
    return {
        "error": {
            "code": code,
            "status": status,
            "message": message,
            "detail": detail,
        }
    }
