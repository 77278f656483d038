"""Versioned model registry persisted in the key-value state store.

The paper's management frontend keeps the serving configuration —
applications, models, versions, replica counts — in Redis, separate from the
serving path, so operators can mutate it without restarting the query
frontend.  :class:`ModelRegistry` plays that role here on top of
:class:`~repro.state.kvstore.KeyValueStore`.

The registry records what the configuration *is*, not what happened to it.
Per model name it stores the routing record of the live
:class:`~repro.routing.table.RoutingTable` verbatim, and everything an
operator reads back — active and previous version, the in-flight split, each
version's lifecycle state — is computed from that record on read
(:func:`read_model`).  No code here computes a routing transition; the
routing table is the only place one is written.

Every mutation goes through an optimistic-concurrency loop built on
``put_if_version``: read the record with its version, apply the update to a
copy, and compare-and-swap it back, retrying on interleaved writers.  That
makes concurrent management operations (two operators, or the management
frontend racing the health monitor) safe without a coarse lock around the
store — the same versioned-replicated-state discipline CRDT systems lean on.

Stored layout (namespace ``management``)::

    applications  -> {app_name: {"registered_at", "metadata"}}
    models:<app>  -> {model_name: {"routing": routing_record | None,
                                   "versions": {str(v): version_record}}}

    routing_record = TrafficSplit.to_record() + {"previous": rollback key | None}
                     (None while no version of the name is routed)
    version_record = {"version", "deployed_at", "spec", "num_replicas", "undeployed"}

``spec`` (:meth:`~repro.core.config.ModelDeployment.to_spec`) is immutable:
registering the same ``(name, version)`` twice is an error.  Only
``num_replicas`` and the ``undeployed`` mark move.  Directories written with
the earlier ``active_version``/``traffic_split`` layout are not read.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.exceptions import ManagementError
from repro.core.types import ModelId
from repro.management.records import (
    VERSION_CANARY,
    VERSION_RETIRED,
    VERSION_SERVING,
    VERSION_STAGED,
    VERSION_UNDEPLOYED,
    version_record,
)
from repro.state.kvstore import KeyValueStore

#: Store namespace holding every registry record.
NAMESPACE = "management"
#: Key of the application index.
APPLICATIONS_KEY = "applications"


def _models_key(app_name: str) -> str:
    return f"models:{app_name}"


def _version_of(model_key: Optional[str]) -> Optional[int]:
    return None if model_key is None else ModelId.parse(model_key).version


def read_model(model_name: str, stored: Dict[str, Any]) -> Dict[str, Any]:
    """What operators read of one model: the stored record plus what it implies.

    ``active_version``, ``previous_version``, ``traffic_split`` (present
    exactly while a canary is in flight) and each version's ``state`` are
    functions of the routing record and the ``undeployed`` marks: serving is
    the stable arm, canary the canary arm, retired the rollback key, and
    anything else still deployed is staged.
    """
    routing = stored["routing"] or {}
    stable, canary = routing.get("stable"), routing.get("canary")
    previous = routing.get("previous")
    model = dict(
        stored,
        active_version=_version_of(stable),
        previous_version=_version_of(previous),
    )
    if canary is not None:
        model["traffic_split"] = {k: v for k, v in routing.items() if k != "previous"}
    states = {previous: VERSION_RETIRED, canary: VERSION_CANARY, stable: VERSION_SERVING}
    for vkey, record in stored["versions"].items():
        record["state"] = (
            VERSION_UNDEPLOYED
            if record["undeployed"]
            else states.get(f"{model_name}:{vkey}", VERSION_STAGED)
        )
    return model


class ModelRegistry:
    """Durable record of applications, models and immutable model versions."""

    def __init__(
        self,
        store: Optional[KeyValueStore] = None,
        namespace: str = NAMESPACE,
        max_cas_retries: int = 32,
    ) -> None:
        self.store = store or KeyValueStore()
        self.namespace = namespace
        self.max_cas_retries = max_cas_retries

    # -- optimistic-concurrency plumbing --------------------------------------

    def _update(self, key: str, fn: Callable[[Dict], Dict]) -> Dict:
        """Apply ``fn`` to the record at ``key`` under compare-and-swap.

        ``fn`` receives a private copy of the current record (an empty dict
        when absent) and returns the record to store.  Retries when another
        writer won the race; raises :class:`ManagementError` if the race is
        lost ``max_cas_retries`` times in a row.
        """
        for _ in range(self.max_cas_retries):
            value, version = self.store.get_with_version(self.namespace, key)
            current = copy.deepcopy(value) if value is not None else {}
            updated = fn(current)
            if self.store.put_if_version(self.namespace, key, updated, version):
                return updated
        raise ManagementError(
            f"lost the optimistic-concurrency race on '{key}' "
            f"{self.max_cas_retries} times; giving up"
        )

    # -- applications ----------------------------------------------------------

    def register_application(
        self, app_name: str, metadata: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Record a new application; duplicate names are rejected."""

        def update(apps: Dict) -> Dict:
            if app_name in apps:
                raise ManagementError(f"application '{app_name}' is already registered")
            apps[app_name] = {
                "registered_at": time.time(),
                "metadata": dict(metadata or {}),
            }
            return apps

        return self._update(APPLICATIONS_KEY, update)[app_name]

    def applications(self) -> List[str]:
        """Names of every registered application."""
        return sorted(self.store.get(self.namespace, APPLICATIONS_KEY, {}))

    def application(self, app_name: str) -> Dict[str, Any]:
        """The stored record of one application."""
        apps = self.store.get(self.namespace, APPLICATIONS_KEY, {})
        if app_name not in apps:
            raise ManagementError(f"application '{app_name}' is not registered")
        return copy.deepcopy(apps[app_name])

    def _require_app(self, app_name: str) -> None:
        if app_name not in self.store.get(self.namespace, APPLICATIONS_KEY, {}):
            raise ManagementError(f"application '{app_name}' is not registered")

    # -- models: one write, computed reads --------------------------------------

    def project(
        self,
        app_name: str,
        model_name: str,
        routing: Optional[Dict[str, Any]],
        version: Optional[int] = None,
        spec: Optional[Dict[str, Any]] = None,
        num_replicas: Optional[int] = None,
        undeployed: bool = False,
    ) -> Dict[str, Any]:
        """Store the live configuration of one model name, in one compare-and-swap.

        ``routing`` replaces the stored routing record.  ``version`` names
        the one version record the operation touched: with ``spec`` it is
        registered (its number must be unused — versions are immutable),
        ``num_replicas`` is its live replica count, ``undeployed`` marks its
        machinery torn down (the record is kept: deploy history survives,
        and the number stays used).
        """
        self._require_app(app_name)

        def update(models: Dict) -> Dict:
            model = models.setdefault(model_name, {"routing": None, "versions": {}})
            model["routing"] = copy.deepcopy(routing)
            if version is None:
                return models
            vkey = str(version)
            if spec is not None:
                if vkey in model["versions"]:
                    raise ManagementError(
                        f"version {version} of model '{model_name}' is already "
                        "registered; versions are immutable"
                    )
                model["versions"][vkey] = version_record(version, spec)
            record = model["versions"].get(vkey)
            if record is None:
                raise ManagementError(
                    f"version {version} of model '{model_name}' is not registered"
                )
            if num_replicas is not None:
                record["num_replicas"] = int(num_replicas)
            if undeployed:
                record["undeployed"] = True
            return models

        stored = self._update(_models_key(app_name), update)[model_name]
        return read_model(model_name, copy.deepcopy(stored))

    def models(self, app_name: str) -> Dict[str, Dict[str, Any]]:
        """The read model (:func:`read_model`) of every model of one application."""
        self._require_app(app_name)
        stored = copy.deepcopy(self.store.get(self.namespace, _models_key(app_name), {}))
        return {name: read_model(name, model) for name, model in stored.items()}

    def model(self, app_name: str, model_name: str) -> Dict[str, Any]:
        """The read model of one model (routing, versions and what they imply)."""
        models = self.models(app_name)
        if model_name not in models:
            raise ManagementError(f"model '{model_name}' is not registered")
        return models[model_name]

    def active_version(self, app_name: str, model_name: str) -> Optional[int]:
        """The version of ``model_name`` recorded as serving, if any."""
        return self.model(app_name, model_name)["active_version"]

    def traffic_split(self, app_name: str, model_name: str) -> Optional[Dict[str, Any]]:
        """The recorded in-flight split of one model (None when stable)."""
        return self.model(app_name, model_name).get("traffic_split")
