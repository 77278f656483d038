"""The routing layer: traffic splits, version resolution, canary rollouts.

This package owns every decision about *which deployed version serves a
query* — the traffic-shifting half of the paper's model-selection layer,
extracted from the serving engine so rollout policy can evolve without
touching the predict hot path:

* :class:`~repro.routing.split.TrafficSplit` — an immutable weighted set of
  version arms for one model name, with deterministic, seeded, hash-based
  assignment (a given routing key always lands on the same arm).
* :class:`~repro.routing.table.RoutingTable` — the name → split mapping plus
  rollback pointers, held in immutable snapshots swapped atomically; also
  the owner of serving-set selection namespaces and per-arm metric handles.
* :class:`~repro.routing.controller.CanaryController` — watches per-arm
  error-rate/p99 deltas and the health monitor's quarantine signal to
  auto-promote or auto-abort in-flight canaries.
"""

from repro.core.metrics import ARM_METRIC_PREFIX
from repro.routing.controller import CanaryController, CanaryDecision
from repro.routing.split import TrafficSplit, assignment_fraction
from repro.routing.table import (
    SELECTION_NAMESPACE_PREFIX,
    RoutePlan,
    RoutingTable,
    parse_namespace_keys,
    selection_namespace,
)

__all__ = [
    "TrafficSplit",
    "RoutingTable",
    "RoutePlan",
    "CanaryController",
    "CanaryDecision",
    "assignment_fraction",
    "selection_namespace",
    "parse_namespace_keys",
    "SELECTION_NAMESPACE_PREFIX",
    "ARM_METRIC_PREFIX",
]
