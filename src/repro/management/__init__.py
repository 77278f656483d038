"""The management plane: live deployment, versioned rollout, scaling, recovery.

This package is the reproduction of the paper's *management frontend* — the
half of Clipper's architecture that mutates a running serving deployment:

* :class:`~repro.management.registry.ModelRegistry` — durable record of
  applications, immutable model-version specs and each model name's live
  routing record, persisted in the key-value state store under optimistic
  concurrency; lifecycle states are derived from the routing record on read.
* :class:`~repro.management.health.HealthMonitor` — probes replicas,
  quarantines unhealthy ones out of dispatch, and restarts them with
  backoff.
* :class:`~repro.management.frontend.ManagementFrontend` — the operator
  surface mirroring the query frontend: deploy/undeploy, replica scaling,
  rollout/rollback, weighted canary rollouts (start/adjust/promote/abort);
  each verb is precheck, one live change, then a projection of the live
  routing into the registry; health and registry introspection per
  application.
* :class:`~repro.routing.controller.CanaryController` (re-exported from the
  routing layer) — one per managed application: watches per-arm
  error-rate/p99 deltas and the health monitor's quarantine signal to
  auto-promote or auto-abort in-flight canaries through the frontend's
  registry-recording verbs.
"""

from repro.core.types import (
    REPLICA_HEALTHY,
    REPLICA_QUARANTINED,
    REPLICA_RECOVERING,
    ReplicaHealth,
)
from repro.management.frontend import ManagementFrontend
from repro.management.health import HealthMonitor
from repro.management.records import (
    VERSION_CANARY,
    VERSION_RETIRED,
    VERSION_SERVING,
    VERSION_STAGED,
    VERSION_UNDEPLOYED,
)
from repro.management.registry import ModelRegistry
from repro.routing.controller import CanaryController

__all__ = [
    "ManagementFrontend",
    "HealthMonitor",
    "ModelRegistry",
    "CanaryController",
    "ReplicaHealth",
    "REPLICA_HEALTHY",
    "REPLICA_QUARANTINED",
    "REPLICA_RECOVERING",
    "VERSION_SERVING",
    "VERSION_STAGED",
    "VERSION_CANARY",
    "VERSION_RETIRED",
    "VERSION_UNDEPLOYED",
]
