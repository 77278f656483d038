"""Handler objects binding the route table onto one frontend.

:func:`build_route_table` registers the external surface of the paper's
Figure 2 over one frontend: a :class:`~repro.core.frontend.QueryFrontend`
gets the application verbs ``predict`` and ``update`` with the listings,
metrics and trace routes over the applications it hosts, and a
:class:`~repro.management.frontend.ManagementFrontend` — a query frontend
too — gets the operator verbs as well, over the same applications.
Handlers do only transport work — decode the body, resolve wire
representations (base64 bytes, factory names), shape the response — and
delegate every check to the frontend, so in-process callers invoking the
same frontend methods cross the identical validation and error path.

The operator verbs are not written here: :mod:`repro.api.verbs` states each
one's route, typed body fields, frontend call and response once, and
:func:`_verb_handler` serves them all.

Model containers cannot travel as JSON, so the admin ``deploy`` verb names
its container through a server-side **factory registry** (the moral
equivalent of the paper's container images): ``build_route_table`` takes a
``factories`` mapping from name to zero-argument container factory, and a
deploy request references one by name.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.api import verbs
from repro.api.errors import RouteNotFoundError
from repro.api.routes import ApiResponse, RouteTable
from repro.api.schema import VECTOR_TYPES, require_field, require_object
from repro.api.verbs import API_PREFIX
from repro.core.config import ModelDeployment
from repro.core.exceptions import (
    BadRequestError,
    ConfigurationError,
    ManagementError,
)
from repro.core.frontend import QueryFrontend
from repro.core.metrics import MetricsRegistry
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


_USER_ID = verbs.Field("user_id", str, required=False)
_LATENCY_SLO_MS = verbs.Field("latency_slo_ms", float, required=False)


def _optional(body: Dict[str, Any], field: verbs.Field) -> Any:
    """An optional field of the predict / update body, typed as the verbs' are."""
    value = body.get(field.name)
    if value is None:
        return None
    try:
        return field.check(value)
    except verbs.FieldError as exc:
        raise BadRequestError(str(exc)) from None


def _prometheus(
    params: Dict[str, str], registries: Dict[str, MetricsRegistry]
) -> Optional[ApiResponse]:
    """The text exposition when ``?format=prometheus`` asks for it."""
    if params.get("format", "").lower() != "prometheus":
        return None
    return ApiResponse(
        200,
        render_prometheus(registries),
        headers={"Content-Type": PROMETHEUS_CONTENT_TYPE},
    )


def _snapshot(registry: MetricsRegistry) -> Dict[str, Any]:
    """The JSON exposition: ``{counters, histograms, gauges}``, the same
    instruments the Prometheus one renders."""
    return vars(registry.snapshot())


def _verb_handler(verb: verbs.Verb, admin: ManagementFrontend, call: Callable):
    """The one handler every operator verb is served by.

    Resolves the application first, so an unknown name is a 404 before the
    body is parsed; a missing or mistyped field is a 400 naming it; ``call``
    takes the path parameters, then the body fields by name.
    """
    path_params = verb.path_params
    hosted = "app" in path_params

    async def handler(params: Dict[str, str], body: Any) -> ApiResponse:
        clipper = admin.application(params["app"]) if hosted else None
        arguments: Dict[str, Any] = {}
        if verb.method == "POST":
            try:
                arguments = verb.arguments(require_object(body))
            except verbs.FieldError as exc:
                raise BadRequestError(str(exc)) from None
        result = call(*(params[name] for name in path_params), **arguments)
        if inspect.isawaitable(result):
            result = await result
        payload = verb.respond(result, clipper)
        if isinstance(payload, MetricsRegistry):
            # A metrics answer takes the exposition format the query names.
            registries = {params["app"]: payload}
            return _prometheus(params, registries) or ApiResponse(200, _snapshot(payload))
        return ApiResponse(200, payload)

    return handler


def build_route_table(
    query: QueryFrontend,
    factories: Optional[Mapping[str, Callable[[], object]]] = None,
) -> RouteTable:
    """Build the versioned route table over one frontend.

    The operator verbs are added when ``query`` is a
    :class:`ManagementFrontend`; ``factories`` names the container
    factories their ``deploy`` verb may reference.
    """
    admin = query if isinstance(query, ManagementFrontend) else None
    table = RouteTable()
    factories = dict(factories or {})

    # -- server-level introspection -------------------------------------------

    async def get_health(params: Dict[str, str], body: Any) -> ApiResponse:
        payload = {"status": "ok", "applications": query.applications()}
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

    def _hosted_clippers() -> Dict[str, Any]:
        return {name: query.application(name) for name in query.applications()}

    async def get_metrics(params: Dict[str, str], body: Any) -> ApiResponse:
        registries = {
            name: clipper.metrics for name, clipper in _hosted_clippers().items()
        }
        return _prometheus(params, registries) or ApiResponse(
            200,
            {"applications": {n: _snapshot(r) for n, r in registries.items()}},
        )

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

    async def list_applications(params: Dict[str, str], body: Any) -> ApiResponse:
        schemas = [query.schema(name).to_dict() for name in query.applications()]
        return ApiResponse(200, {"applications": schemas})

    async def get_schema(params: Dict[str, str], body: Any) -> ApiResponse:
        return ApiResponse(200, query.schema(params["app"]).to_dict())

    def input_vector(params: Dict[str, str]) -> Optional[str]:
        # A floats/doubles app's JSON input is decoded as a vector (404 first).
        return "input" if query.schema(params["app"]).input_type in VECTOR_TYPES else None

    def read_input(app_name: str, body: Any) -> Any:
        """The body object and its ``input``, as validation takes it."""
        payload = require_object(body)
        raw = require_field(payload, "input")
        # A columnar input is a typed ndarray (a view into the received frame)
        # and so is a JSON vector: validation coerces either without a copy.
        x = raw if isinstance(raw, np.ndarray) else query.schema(app_name).decode_wire_input(raw)
        return payload, x

    async def post_predict(params: Dict[str, str], body: Any) -> ApiResponse:
        app_name = params["app"]
        payload, x = read_input(app_name, body)
        prediction = await query.predict(
            app_name,
            x,
            user_id=_optional(payload, _USER_ID),
            latency_slo_ms=_optional(payload, _LATENCY_SLO_MS),
            trace_id=params.get("_trace_id"),
        )
        headers = (
            {"X-Clipper-Trace-Id": prediction.trace_id}
            if prediction.trace_id
            else {}
        )
        return ApiResponse(200, prediction_payload(prediction), headers=headers)

    async def post_update(params: Dict[str, str], body: Any) -> ApiResponse:
        app_name = params["app"]
        payload, x = read_input(app_name, body)
        label = require_field(payload, "label")
        await query.update(
            app_name, x, label, user_id=_optional(payload, _USER_ID)
        )
        return ApiResponse(200, {"ok": True, "app_name": app_name})

    table.add("GET", f"{API_PREFIX}/applications", "applications", list_applications)
    table.add("GET", f"{API_PREFIX}/{{app}}/schema", "schema", get_schema)
    table.add("POST", f"{API_PREFIX}/{{app}}/predict", "predict", post_predict, input_vector)
    table.add("POST", f"{API_PREFIX}/{{app}}/update", "update", post_update, input_vector)

    # -- operator verbs (the management REST API) -------------------------------

    if admin is not None:

        async def deploy_model(
            app_name: str,
            model_name: str,
            factory: str,
            activate: Optional[bool] = None,
            **spec: Any,
        ) -> Any:
            # The one argument that cannot travel as JSON.  The body is a
            # deployment spec under two wire names (``model_name``,
            # ``factory``) beside the verb's own ``activate``; its container
            # is named through the factory registry.
            spec.update(name=model_name, factory_name=factory)
            try:
                deployment = ModelDeployment.from_spec(spec, factories)
            except (ConfigurationError, ManagementError) as exc:
                raise BadRequestError(str(exc), detail=exc.detail) from None
            return await admin.deploy_model(app_name, deployment, activate=activate)

        resolving = {"deploy_model": deploy_model}
        for verb in verbs.ADMIN_VERBS:
            call = resolving.get(verb.call) or getattr(admin, verb.call)
            table.add(
                verb.method, verb.pattern, verb.route, _verb_handler(verb, admin, call)
            )

    return table
