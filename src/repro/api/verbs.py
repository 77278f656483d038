"""The operator verbs of the management REST API, each written once.

A wire shape is a contract two ends must agree on, so it lives in one table
both read.  Each :class:`Verb` row states its route (``admin.<name>``, method,
path under :data:`ADMIN_PREFIX`), its typed body fields (required or
optional, in the SDK's positional order), the
:class:`~repro.management.frontend.ManagementFrontend` method that carries it
out and the projection of that method's result onto the response body.
:func:`repro.api.handlers.build_route_table` serves every row through one
generic handler (:meth:`Verb.arguments` is its body parser) and
:class:`repro.client.AsyncAdminClient` gets one method per row
(:meth:`Verb.request` is its argument binder).  Adding an operator verb is
one row here plus one frontend method.

Stdlib only, like :mod:`repro.rpc.http11`: the SDK imports it without the
serving engine.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

#: Every route lives under the version prefix; the operator verbs under its
#: ``admin`` tree.
API_PREFIX = "/api/v1"
ADMIN_PREFIX = f"{API_PREFIX}/admin"


class FieldError(ValueError):
    """A body field is missing or of the wrong type; the message names it."""


#: What a conforming value of each field kind is called.  ``float`` takes any
#: JSON number; a ``bool`` is an ``int`` to Python and never one on this wire.
_NOUNS = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    dict: "an object",
}


class Field(NamedTuple):
    """One typed body field of a verb."""

    name: str
    kind: type = str
    required: bool = True

    def check(self, value: Any) -> Any:
        """``value`` as the frontend takes it; :class:`FieldError` otherwise."""
        noun = _NOUNS[self.kind]
        ok = isinstance(value, (int, float) if self.kind is float else self.kind)
        if isinstance(value, bool) and self.kind is not bool:
            ok = False
        if self.kind is str and self.required:
            noun, ok = "a non-empty string", ok and value != ""
        if not ok:
            raise FieldError(f"field '{self.name}' must be {noun}")
        return float(value) if self.kind is float else value


@dataclass(frozen=True)
class Verb:
    """One operator verb: its route, its body and its response."""

    #: The SDK method; the route is named ``admin.<name>``.
    name: str
    method: str
    #: Under :data:`ADMIN_PREFIX`.  A ``{app}`` / ``{model}`` placeholder is
    #: the SDK's and the frontend's leading ``app_name`` / ``model_name``.
    path: str
    #: The ``ManagementFrontend`` method: path parameters positionally, then
    #: the body fields by name.
    call: str
    fields: Tuple[Field, ...] = ()
    #: Whether undeclared body fields travel too (deploy: the rest of the spec).
    open: bool = False
    #: ``(the call's result, the application) -> response body``.
    respond: Callable[[Any, Any], Any] = lambda result, clipper: result
    #: The key of the response body the SDK method returns (None: all of it).
    returns: Optional[str] = None
    doc: str = ""

    @property
    def route(self) -> str:
        return f"admin.{self.name}"

    @property
    def pattern(self) -> str:
        return ADMIN_PREFIX + self.path

    @cached_property
    def path_params(self) -> Tuple[str, ...]:
        return tuple(re.findall(r"\{(\w+)\}", self.path))

    def arguments(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Server side: the call's keyword arguments from a decoded object body.

        An optional field sent as ``null`` is absent; a closed row ignores
        fields it does not declare.
        """
        arguments: Dict[str, Any] = {}
        for field in self.fields:
            if field.name not in body:
                if field.required:
                    raise FieldError(
                        f"request body is missing required field '{field.name}'"
                    )
            elif field.required or body[field.name] is not None:
                arguments[field.name] = field.check(body[field.name])
        if self.open:
            declared = {field.name for field in self.fields}
            arguments.update((k, v) for k, v in body.items() if k not in declared)
        return arguments

    @cached_property
    def signature(self) -> inspect.Signature:
        """The SDK method's: ``(app_name, ..., *fields)``, ``**spec`` on an open row."""
        kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
        parameters = [
            inspect.Parameter(f"{param}_name", kind) for param in self.path_params
        ]
        for field in self.fields:
            default = inspect.Parameter.empty if field.required else None
            parameters.append(inspect.Parameter(field.name, kind, default=default))
        if self.open:
            parameters.append(inspect.Parameter("spec", inspect.Parameter.VAR_KEYWORD))
        return inspect.Signature(parameters)

    def request(self, *args: Any, **kwargs: Any) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Client side: ``(path, body)`` of a call with these Python arguments.

        ``TypeError`` as from any function on a surplus, repeated, unknown or
        missing argument.  Optional fields left ``None`` stay off the wire.
        """
        given = self.signature.bind(*args, **kwargs).arguments
        given.update(given.pop("spec", {}))
        path = self.pattern.format(
            **{param: given.pop(f"{param}_name") for param in self.path_params}
        )
        if self.method != "POST":
            return path, None
        return path, {name: value for name, value in given.items() if value is not None}


def _under(key: str, render: Callable[[Any], Any] = lambda result: result):
    return lambda result, clipper: {key: render(result)}


_MODEL = _under("model", str)
_SPLIT = _under("split", lambda split: split.to_record())
_NAME = Field("model_name")
_VERSION = Field("version", int)
_WEIGHT = Field("weight", float)

ADMIN_VERBS: Tuple[Verb, ...] = (
    Verb(
        "applications", "GET", "/applications", "applications",
        respond=_under("applications"), returns="applications",
        doc="The names of every managed application.",
    ),
    Verb(
        "deploy", "POST", "/{app}/deploy", "deploy_model",
        fields=(
            _NAME,
            Field("factory"),
            Field("version", int, False),
            Field("num_replicas", int, False),
            Field("batching", dict, False),
            Field("serialize_rpc", bool, False),
            Field("activate", bool, False),
            Field("transport", str, False),
        ),
        open=True,
        respond=lambda model_id, clipper: {
            "model": str(model_id),
            "serving": model_id in clipper.serving_models(),
        },
        doc="Deploy a model version built from a server-registered factory; "
        "any other ``ModelDeployment`` spec field rides along by keyword.",
    ),
    Verb(
        "undeploy", "POST", "/{app}/undeploy", "undeploy_model",
        fields=(Field("model"),),
        respond=lambda model_id, clipper: {"model": str(model_id), "undeployed": True},
        doc="Drain and tear down one model version (``name`` or ``name:version``).",
    ),
    Verb(
        "scale", "POST", "/{app}/scale", "set_num_replicas",
        fields=(Field("model"), Field("num_replicas", int)),
        respond=_under("num_replicas"),
        doc="Set one model version's live replica count.",
    ),
    Verb(
        "rollout", "POST", "/{app}/rollout", "rollout", fields=(_NAME, _VERSION),
        respond=_MODEL, doc="Atomically switch a model to serve ``version``.",
    ),
    Verb(
        "rollback", "POST", "/{app}/rollback", "rollback", fields=(_NAME,),
        respond=_MODEL, doc="Atomically switch a model back to its previous version.",
    ),
    Verb(
        "start_canary", "POST", "/{app}/start_canary", "start_canary",
        fields=(_NAME, _VERSION, _WEIGHT),
        respond=_SPLIT, doc="Shift ``weight`` of a model's traffic onto ``version``.",
    ),
    Verb(
        "adjust_canary", "POST", "/{app}/adjust_canary", "adjust_canary",
        fields=(_NAME, _WEIGHT),
        respond=_SPLIT, doc="Change the in-flight canary's traffic weight.",
    ),
    Verb(
        "promote", "POST", "/{app}/promote", "promote", fields=(_NAME,),
        respond=_MODEL, doc="Make the in-flight canary the serving version.",
    ),
    Verb(
        "abort_canary", "POST", "/{app}/abort_canary", "abort_canary", fields=(_NAME,),
        respond=_MODEL, doc="Abort the in-flight canary; the stable version serves.",
    ),
    Verb(
        "models", "GET", "/{app}/models", "models",
        respond=_under("models"), returns="models",
        doc="Registry records of every model of one application.",
    ),
    Verb(
        "model_info", "GET", "/{app}/models/{model}", "model_info",
        doc="Registry record of one model plus the application's schema.",
    ),
    Verb(
        "health", "GET", "/{app}/health", "describe",
        doc="One-call operational snapshot of an application.",
    ),
    Verb(
        "metrics", "GET", "/{app}/metrics", "application",
        respond=lambda clipper, _: clipper.metrics,
        doc="Counters, histograms and gauges of one application.",
    ),
    Verb(
        "routing", "GET", "/{app}/routing", "application",
        respond=lambda clipper, _: {"routing": clipper.routing.describe()},
        returns="routing",
        doc="The live routing table of one application.",
    ),
)
