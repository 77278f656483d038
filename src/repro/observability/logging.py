"""Structured JSON logging with trace-id correlation.

All repro components log through ``get_logger(name)``, which returns a child
of the ``repro`` logger.  :func:`configure_logging` installs a single
JSON-lines handler on that root exactly once per process — calling it again
(each HTTP server start does) is a no-op, so multiple servers in one process
never duplicate handlers.  Extra keyword context rides along via ``extra=``
and is merged into the JSON record, which is how log lines carry
``trace_id`` fields that join against the :class:`~repro.observability.tracing.TraceRegistry`.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, Optional, TextIO


ROOT_LOGGER_NAME = "repro"

#: Attribute marking handlers installed by :func:`configure_logging`, so
#: repeat calls (and the asyncio-logger guard) can detect them.
_MARKER = "_repro_structured"

#: LogRecord attributes that are plumbing, not user context.
_RESERVED = frozenset(
    (
        "args",
        "asctime",
        "created",
        "exc_info",
        "exc_text",
        "filename",
        "funcName",
        "levelname",
        "levelno",
        "lineno",
        "message",
        "module",
        "msecs",
        "msg",
        "name",
        "pathname",
        "process",
        "processName",
        "relativeCreated",
        "stack_info",
        "taskName",
        "thread",
        "threadName",
    )
)


class JsonFormatter(logging.Formatter):
    """Render each record as one JSON object per line.

    Standard fields: ``ts`` (epoch seconds), ``level``, ``logger``,
    ``event`` (the formatted message).  Anything passed via ``extra=`` —
    ``trace_id``, ``model``, ``app`` … — is merged in at the top level.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_") or key in payload:
                continue
            payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


def _structured_handler(stream: Optional[TextIO]) -> logging.Handler:
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter())
    setattr(handler, _MARKER, True)
    return handler


def _has_structured_handler(logger: logging.Logger) -> bool:
    return any(getattr(h, _MARKER, False) for h in logger.handlers)


def _guard_asyncio_logger(stream: Optional[TextIO]) -> None:
    """Give the ``asyncio`` logger one structured handler, never more.

    The stdlib event loop logs callback exceptions through this logger; an
    unconditional ``addHandler`` here would stack a duplicate per server
    started in the process, so the guard is the whole point.
    """
    logger = logging.getLogger("asyncio")
    if not _has_structured_handler(logger):
        logger.addHandler(_structured_handler(stream))


def configure_logging(
    level: int = logging.INFO,
    stream: Optional[TextIO] = None,
    force: bool = False,
) -> logging.Logger:
    """Idempotently set up structured JSON logging for the process.

    Installs one JSON handler on the ``repro`` root logger (and guards the
    ``asyncio`` logger the same way).  Safe to call from every server
    start; ``force=True`` tears down previous structured handlers first
    (used by tests to redirect the stream).
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if force:
        for logger in (root, logging.getLogger("asyncio")):
            for handler in list(logger.handlers):
                if getattr(handler, _MARKER, False):
                    logger.removeHandler(handler)
    if not _has_structured_handler(root):
        root.addHandler(_structured_handler(stream))
        root.setLevel(level)
        root.propagate = False
    _guard_asyncio_logger(stream)
    return root


def get_logger(name: str) -> logging.Logger:
    """A structured logger namespaced under the ``repro`` root."""
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")
