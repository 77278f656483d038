"""Handler objects binding the route table onto the two frontends.

:func:`build_route_table` registers the full external surface of the paper's
Figure 2 over a :class:`~repro.core.frontend.QueryFrontend` (the application
verbs ``predict`` and ``update``) and a
:class:`~repro.management.frontend.ManagementFrontend` (the operator verbs).
Handlers do only transport work — decode the JSON body, resolve wire
representations (base64 bytes, factory names), shape the response — and
delegate every check to the frontends, so in-process callers invoking the
same frontend methods cross the identical validation and error path.

Model containers cannot travel as JSON, so the admin ``deploy`` verb names
its container through a server-side **factory registry** (the moral
equivalent of the paper's container images): ``build_route_table`` takes a
``factories`` mapping from name to zero-argument container factory, and a
deploy request references one by name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.api.errors import RouteNotFoundError
from repro.api.routes import API_PREFIX, ApiResponse, RouteTable
from repro.api.schema import json_safe, require_field, require_object
from repro.core.config import ModelDeployment
from repro.core.exceptions import (
    BadRequestError,
    ConfigurationError,
    ManagementError,
)
from repro.core.frontend import QueryFrontend
from repro.core.types import Prediction
from repro.management.frontend import ManagementFrontend
from repro.observability.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus


def prediction_payload(prediction: Prediction) -> Dict[str, Any]:
    """The wire shape of one prediction (mirrors the paper's REST response)."""
    return {
        "query_id": prediction.query_id,
        "app_name": prediction.app_name,
        "output": prediction.output,
        "confidence": prediction.confidence,
        "latency_ms": prediction.latency_ms,
        "default_used": prediction.default_used,
        "models_used": list(prediction.models_used),
        "models_missing": list(prediction.models_missing),
        "from_cache": prediction.from_cache,
        "trace_id": prediction.trace_id,
    }


def _wants_prometheus(params: Dict[str, str]) -> bool:
    return params.get("format", "").lower() == "prometheus"


def _parse_flag(params: Dict[str, str], name: str) -> bool:
    return params.get(name, "").lower() in ("1", "true", "yes")


def _parse_limit(params: Dict[str, str], default: int = 50) -> int:
    raw = params.get("limit")
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        raise BadRequestError("query parameter 'limit' must be an integer") from None


def _optional_str(body: Dict[str, Any], name: str) -> Optional[str]:
    value = body.get(name)
    if value is not None and not isinstance(value, str):
        raise BadRequestError(f"field '{name}' must be a string")
    return value


def _optional_number(body: Dict[str, Any], name: str) -> Optional[float]:
    value = body.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"field '{name}' must be a number")
    return float(value)


def _require_str(body: Dict[str, Any], name: str) -> str:
    value = require_field(body, name)
    if not isinstance(value, str) or not value:
        raise BadRequestError(f"field '{name}' must be a non-empty string")
    return value


def _require_int(body: Dict[str, Any], name: str) -> int:
    value = require_field(body, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"field '{name}' must be an integer")
    return value


def _require_number(body: Dict[str, Any], name: str) -> float:
    value = require_field(body, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"field '{name}' must be a number")
    return float(value)


def build_route_table(
    query: Optional[QueryFrontend] = None,
    admin: Optional[ManagementFrontend] = None,
    factories: Optional[Mapping[str, Callable[[], object]]] = None,
) -> RouteTable:
    """Build the versioned route table over the given frontends.

    Either frontend may be omitted to expose only half the surface (e.g. a
    query-only ingress tier).  ``factories`` names the container factories
    the admin ``deploy`` verb may reference.
    """
    if query is None and admin is None:
        raise ValueError("build_route_table needs a query and/or admin frontend")
    table = RouteTable()
    factories = dict(factories or {})

    # -- server-level introspection -------------------------------------------

    async def get_health(params: Dict[str, str], body: Any) -> ApiResponse:
        hosts = query if query is not None else admin
        payload = {"status": "ok", "applications": hosts.applications()}
        if admin is not None:
            # Cold-start restores report what came back (and what could not),
            # so operators see a recovered process for what it is.
            recovery = admin.recovery_status()
            if recovery:
                payload["recovery"] = recovery
        return ApiResponse(200, payload)

    async def get_routes(params: Dict[str, str], body: Any) -> ApiResponse:
        return ApiResponse(200, {"routes": table.describe()})

    table.add("GET", f"{API_PREFIX}/health", "health", get_health)
    table.add("GET", f"{API_PREFIX}/routes", "routes", get_routes)

    # -- observability: metrics exposition and trace queries --------------------
    #
    # Registered before the {app}-pattern application verbs so the literal
    # ``trace``/``traces``/``metrics`` segments win over the wildcard at the
    # same segment count (first match in registration order).

    hosts = query if query is not None else admin

    def _hosted_clippers() -> Dict[str, Any]:
        return {name: hosts.application(name) for name in hosts.applications()}

    async def get_metrics(params: Dict[str, str], body: Any) -> ApiResponse:
        clippers = _hosted_clippers()
        if _wants_prometheus(params):
            text = render_prometheus(
                {name: clipper.metrics for name, clipper in clippers.items()}
            )
            return ApiResponse(
                200, text, headers={"Content-Type": PROMETHEUS_CONTENT_TYPE}
            )
        snapshots = {}
        for name, clipper in clippers.items():
            snapshot = clipper.metrics.snapshot()
            snapshots[name] = {
                "counters": snapshot.counters,
                "meters": snapshot.meters,
                "histograms": snapshot.histograms,
            }
        return ApiResponse(200, {"applications": snapshots})

    async def get_trace(params: Dict[str, str], body: Any) -> ApiResponse:
        trace_id = params["trace_id"]
        for clipper in _hosted_clippers().values():
            tree = clipper.tracer.registry.trace(trace_id)
            if tree is not None:
                return ApiResponse(200, tree)
        raise RouteNotFoundError(f"no committed trace with id '{trace_id}'")

    async def get_traces(params: Dict[str, str], body: Any) -> ApiResponse:
        slow = _parse_flag(params, "slow")
        limit = _parse_limit(params)
        merged = []
        for clipper in _hosted_clippers().values():
            merged.extend(clipper.tracer.registry.recent(slow=slow, limit=limit))
        merged.sort(key=lambda summary: summary["captured_at"], reverse=True)
        return ApiResponse(200, {"traces": merged[:limit], "slow_only": slow})

    table.add("GET", f"{API_PREFIX}/metrics", "metrics", get_metrics)
    table.add("GET", f"{API_PREFIX}/trace/{{trace_id}}", "trace", get_trace)
    table.add("GET", f"{API_PREFIX}/traces", "traces", get_traces)

    # -- application verbs (Figure 2: predict / update) -------------------------

    if query is not None:

        async def list_applications(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(
                200,
                {
                    "applications": [
                        query.schema(name).to_dict() for name in query.applications()
                    ]
                },
            )

        async def get_schema(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(200, query.schema(params["app"]).to_dict())

        async def post_predict(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            app_name = params["app"]
            # Resolve the application first so an unknown name is a 404 even
            # when the body is also malformed.
            schema = query.schema(app_name)
            raw = require_field(payload, "input")
            # Binary fast path: a columnar body lands here with the input
            # already a typed ndarray (a zero-copy view into the received
            # frame) — skip the JSON wire codec and hand it to the frontend,
            # whose validation coerces conforming arrays without a copy.
            x = raw if isinstance(raw, np.ndarray) else schema.decode_wire_input(raw)
            prediction = await query.predict(
                app_name,
                x,
                user_id=_optional_str(payload, "user_id"),
                latency_slo_ms=_optional_number(payload, "latency_slo_ms"),
                trace_id=params.get("_trace_id"),
            )
            headers = (
                {"X-Clipper-Trace-Id": prediction.trace_id}
                if prediction.trace_id
                else {}
            )
            return ApiResponse(200, prediction_payload(prediction), headers=headers)

        async def post_update(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            app_name = params["app"]
            schema = query.schema(app_name)
            raw = require_field(payload, "input")
            x = raw if isinstance(raw, np.ndarray) else schema.decode_wire_input(raw)
            label = require_field(payload, "label")
            await query.update(
                app_name, x, label, user_id=_optional_str(payload, "user_id")
            )
            return ApiResponse(200, {"ok": True, "app_name": app_name})

        table.add(
            "GET", f"{API_PREFIX}/applications", "applications", list_applications
        )
        table.add("GET", f"{API_PREFIX}/{{app}}/schema", "schema", get_schema)
        table.add("POST", f"{API_PREFIX}/{{app}}/predict", "predict", post_predict)
        table.add("POST", f"{API_PREFIX}/{{app}}/update", "update", post_update)

    # -- operator verbs (the management REST API) -------------------------------

    if admin is not None:
        prefix = f"{API_PREFIX}/admin"

        def _deployment_from(payload: Dict[str, Any]) -> ModelDeployment:
            # The body is a deployment spec under two wire names
            # (``model_name``, ``factory``) beside the verb's own ``activate``.
            spec = {
                "name": _require_str(payload, "model_name"),
                "factory_name": _require_str(payload, "factory"),
            }
            wire_only = ("model_name", "factory", "activate")
            spec.update((k, v) for k, v in payload.items() if k not in wire_only)
            try:
                return ModelDeployment.from_spec(spec, factories)
            except (ConfigurationError, ManagementError) as exc:
                raise BadRequestError(str(exc), detail=exc.detail) from None

        async def post_deploy(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            admin.application(params["app"])  # 404 before the body is parsed
            deployment = _deployment_from(payload)
            activate = payload.get("activate")
            if activate is not None and not isinstance(activate, bool):
                raise BadRequestError("field 'activate' must be a boolean")
            model_id = await admin.deploy_model(
                params["app"], deployment, activate=activate
            )
            return ApiResponse(
                200,
                {
                    "model": str(model_id),
                    "serving": model_id in admin.application(params["app"]).serving_models(),
                },
            )

        async def post_undeploy(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            model_id = await admin.undeploy_model(
                params["app"], _require_str(payload, "model")
            )
            return ApiResponse(200, {"model": str(model_id), "undeployed": True})

        async def post_scale(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            count = await admin.set_num_replicas(
                params["app"],
                _require_str(payload, "model"),
                _require_int(payload, "num_replicas"),
            )
            return ApiResponse(200, {"num_replicas": count})

        async def post_rollout(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            model_id = await admin.rollout(
                params["app"],
                _require_str(payload, "model_name"),
                _require_int(payload, "version"),
            )
            return ApiResponse(200, {"model": str(model_id)})

        async def post_rollback(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            model_id = await admin.rollback(
                params["app"], _require_str(payload, "model_name")
            )
            return ApiResponse(200, {"model": str(model_id)})

        async def post_start_canary(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            split = await admin.start_canary(
                params["app"],
                _require_str(payload, "model_name"),
                _require_int(payload, "version"),
                _require_number(payload, "weight"),
            )
            return ApiResponse(200, {"split": split.to_record()})

        async def post_adjust_canary(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            split = await admin.adjust_canary(
                params["app"],
                _require_str(payload, "model_name"),
                _require_number(payload, "weight"),
            )
            return ApiResponse(200, {"split": split.to_record()})

        async def post_promote(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            model_id = await admin.promote(
                params["app"], _require_str(payload, "model_name")
            )
            return ApiResponse(200, {"model": str(model_id)})

        async def post_abort_canary(params: Dict[str, str], body: Any) -> ApiResponse:
            payload = require_object(body)
            model_id = await admin.abort_canary(
                params["app"], _require_str(payload, "model_name")
            )
            return ApiResponse(200, {"model": str(model_id)})

        async def get_models(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(200, {"models": admin.models(params["app"])})

        async def get_model_info(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(
                200, admin.model_info(params["app"], params["model"])
            )

        async def get_app_health(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(200, admin.describe(params["app"]))

        async def get_app_metrics(params: Dict[str, str], body: Any) -> ApiResponse:
            clipper = admin.application(params["app"])
            if _wants_prometheus(params):
                text = render_prometheus({params["app"]: clipper.metrics})
                return ApiResponse(
                    200, text, headers={"Content-Type": PROMETHEUS_CONTENT_TYPE}
                )
            snapshot = clipper.metrics.snapshot()
            return ApiResponse(
                200,
                {
                    "counters": snapshot.counters,
                    "meters": snapshot.meters,
                    "histograms": snapshot.histograms,
                },
            )

        async def get_app_routing(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(
                200, {"routing": admin.application(params["app"]).routing.describe()}
            )

        async def list_managed(params: Dict[str, str], body: Any) -> ApiResponse:
            return ApiResponse(200, {"applications": admin.applications()})

        table.add("GET", f"{prefix}/applications", "admin.applications", list_managed)
        table.add("POST", f"{prefix}/{{app}}/deploy", "admin.deploy", post_deploy)
        table.add("POST", f"{prefix}/{{app}}/undeploy", "admin.undeploy", post_undeploy)
        table.add("POST", f"{prefix}/{{app}}/scale", "admin.scale", post_scale)
        table.add("POST", f"{prefix}/{{app}}/rollout", "admin.rollout", post_rollout)
        table.add("POST", f"{prefix}/{{app}}/rollback", "admin.rollback", post_rollback)
        table.add(
            "POST",
            f"{prefix}/{{app}}/start_canary",
            "admin.start_canary",
            post_start_canary,
        )
        table.add(
            "POST",
            f"{prefix}/{{app}}/adjust_canary",
            "admin.adjust_canary",
            post_adjust_canary,
        )
        table.add("POST", f"{prefix}/{{app}}/promote", "admin.promote", post_promote)
        table.add(
            "POST",
            f"{prefix}/{{app}}/abort_canary",
            "admin.abort_canary",
            post_abort_canary,
        )
        table.add("GET", f"{prefix}/{{app}}/models", "admin.models", get_models)
        table.add(
            "GET",
            f"{prefix}/{{app}}/models/{{model}}",
            "admin.model_info",
            get_model_info,
        )
        table.add("GET", f"{prefix}/{{app}}/health", "admin.health", get_app_health)
        table.add("GET", f"{prefix}/{{app}}/metrics", "admin.metrics", get_app_metrics)
        table.add("GET", f"{prefix}/{{app}}/routing", "admin.routing", get_app_routing)

    return table


__all__ = ["build_route_table", "prediction_payload", "json_safe"]
