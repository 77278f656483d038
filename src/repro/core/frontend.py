"""Application-facing query frontend.

Applications interact with Clipper through a REST interface exposing two
operations: request a prediction, and return feedback about a prediction
(Figure 2).  The :class:`QueryFrontend` is that interface for the
reproduction: it hosts one or more applications (each backed by its own
:class:`~repro.core.clipper.Clipper` instance), validates every input
against the application's declared schema, and routes requests by
application name.  The HTTP binding (:mod:`repro.api.http`) serves this
same object through the versioned route table, so in-process and HTTP
callers cross one validation and error path — the REST API of the paper,
with or without the HTTP framing.

Both frontends share :class:`ApplicationHost` (the name→instance registry
plus per-application :class:`~repro.api.schema.ApplicationSchema`) and the
module-level :func:`start_applications`/:func:`stop_applications` lifecycle
helpers; the HTTP server starts and stops the frontends themselves.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

from repro.api.schema import ApplicationSchema
from repro.core.clipper import Clipper
from repro.core.exceptions import (
    ClipperError,
    DuplicateApplicationError,
    UnknownApplicationError,
)
from repro.core.types import Feedback, Prediction, Query
from repro.observability.logging import get_logger

logger = get_logger("core.frontend")


async def start_applications(applications: Mapping[str, Clipper]) -> None:
    """Start a collection of applications all-or-nothing, in name order.

    Applications start in sorted-name order (deterministic whatever mapping
    they arrive in).  If one fails to start, the ones already brought up are
    stopped again in reverse order before the error propagates, so a failed
    start never leaks running replicas.  Shared by the query and management
    frontends and the HTTP server's startup.
    """
    started = []
    try:
        for app_name in sorted(applications):
            await applications[app_name].start()
            started.append(app_name)
    except BaseException:
        for app_name in reversed(started):
            try:
                await applications[app_name].stop()
            except Exception:
                # The start failure is the error to surface; only this line
                # says an application may have been left running.
                logger.warning(
                    "stopping an application after a failed start also failed",
                    exc_info=True,
                    extra={"app": app_name},
                )
        raise


async def stop_applications(applications: Mapping[str, Clipper]) -> None:
    """Stop every application in reverse name order, collecting errors.

    The mirror image of :func:`start_applications` — same signature, same
    deterministic ordering, reversed.  One application failing to stop does
    not strand the others; the collected errors are re-raised together as
    one :class:`ClipperError`.
    """
    errors = []
    for app_name in sorted(applications, reverse=True):
        try:
            await applications[app_name].stop()
        except Exception as exc:
            errors.append(f"{app_name}: {exc}")
    if errors:
        raise ClipperError("failed to stop application(s): " + "; ".join(errors))


class ApplicationHost:
    """Shared application registry behind the query and management frontends.

    Owns the name→:class:`Clipper` mapping and the per-application
    :class:`ApplicationSchema` derived at registration, so both frontends —
    and through them both transports — resolve applications and validate
    inputs identically.
    """

    def __init__(self) -> None:
        self._applications: Dict[str, Clipper] = {}
        self._schemas: Dict[str, ApplicationSchema] = {}

    def _host_application(self, clipper: Clipper) -> str:
        """Add an application to the host; duplicate names are rejected."""
        app_name = clipper.config.app_name
        if app_name in self._applications:
            raise DuplicateApplicationError(
                f"application '{app_name}' is already registered"
            )
        self._applications[app_name] = clipper
        self._schemas[app_name] = ApplicationSchema.from_config(clipper.config)
        return app_name

    def _unhost_application(self, app_name: str) -> None:
        self._applications.pop(app_name, None)
        self._schemas.pop(app_name, None)

    def applications(self) -> List[str]:
        """Names of every hosted application."""
        return sorted(self._applications)

    def application(self, app_name: str) -> Clipper:
        """The serving instance behind one application."""
        return self._lookup(app_name)

    def schema(self, app_name: str) -> ApplicationSchema:
        """The declared serving contract of one application."""
        self._lookup(app_name)
        return self._schemas[app_name]

    def _lookup(self, app_name: str) -> Clipper:
        clipper = self._applications.get(app_name)
        if clipper is None:
            raise UnknownApplicationError(
                f"unknown application '{app_name}'; registered: {self.applications()}",
                detail={"registered": self.applications()},
            )
        return clipper


class QueryFrontend(ApplicationHost):
    """Routes prediction and feedback requests to registered applications."""

    def register_application(self, clipper: Clipper) -> str:
        """Register an application; the name comes from the Clipper config."""
        return self._host_application(clipper)

    async def start(self) -> None:
        """Start every registered application (all-or-nothing, name order)."""
        await start_applications(self._applications)

    async def stop(self) -> None:
        """Stop every registered application, collecting per-app errors."""
        await stop_applications(self._applications)

    async def predict(
        self,
        app_name: str,
        x: Any,
        user_id: Optional[str] = None,
        latency_slo_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Prediction:
        """Render a prediction through the named application.

        The input is validated (and coerced) against the application's
        declared schema before a :class:`Query` is built — the single
        validation path shared with HTTP callers.  A caller-supplied
        ``trace_id`` (the ``X-Clipper-Trace-Id`` header) force-samples the
        query's trace; the frontend stamps the validation stage so sampled
        trace trees start at the edge, not inside the engine.
        """
        clipper = self._lookup(app_name)
        # Overload precheck: under the reject shed policy a saturated
        # admission gate refuses the request before any validation work
        # (non-consuming peek; the engine still makes the real decision).
        clipper.overload.precheck()
        metadata = None
        if clipper.tracer.active:
            t0 = time.monotonic()
            x = self._schemas[app_name].validate_input(x)
            t1 = time.monotonic()
            metadata = {"pre_spans": (("frontend.validate", t0, t1, None),)}
        else:
            x = self._schemas[app_name].validate_input(x)
        query = Query(
            app_name=app_name,
            input=x,
            user_id=user_id,
            latency_slo_ms=latency_slo_ms,
            metadata=metadata,
            trace_id=trace_id,
        )
        return await clipper.predict(query)

    async def update(
        self,
        app_name: str,
        x: Any,
        label: Any,
        user_id: Optional[str] = None,
    ) -> None:
        """Send ground-truth feedback for an earlier prediction.

        The feedback input crosses the same schema validation as queries,
        and the label is checked against the declared output contract, so a
        malformed update cannot poison the selection state.
        """
        clipper = self._lookup(app_name)
        schema = self._schemas[app_name]
        x = schema.validate_input(x)
        label = schema.validate_label(label)
        await clipper.feedback(
            Feedback(app_name=app_name, input=x, label=label, user_id=user_id)
        )

    def app_metrics(self, app_name: str):
        """Expose the metrics snapshot of one application (monitoring hook)."""
        return self._lookup(app_name).metrics.snapshot()
