"""Shared vocabulary of the management plane.

The registry persists plain dicts (JSON-friendly, like the selection-policy
states) in the :class:`~repro.state.kvstore.KeyValueStore`; this module
defines the lifecycle states the registry derives for each version, the
helper that builds a version record, and the in-memory
:class:`ReplicaHealth` record the health monitor maintains per replica.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Lifecycle states of one deployed model version.
VERSION_SERVING = "serving"      # the active version: receives traffic
VERSION_STAGED = "staged"        # deployed and warm, awaiting rollout
VERSION_CANARY = "canary"        # serving a weighted slice during a rollout
VERSION_RETIRED = "retired"      # previously serving; kept warm for rollback
VERSION_UNDEPLOYED = "undeployed"  # machinery torn down; record kept for history

#: Health states of one container replica.
REPLICA_HEALTHY = "healthy"
REPLICA_QUARANTINED = "quarantined"  # out of dispatch, awaiting restart
REPLICA_RECOVERING = "recovering"    # restart in progress


def version_record(version: int, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Build the stored record of one model version.

    ``spec`` (:meth:`~repro.core.config.ModelDeployment.to_spec`) is
    immutable once registered; ``num_replicas`` starts at the spec's count
    and follows scaling, and ``undeployed`` is set when the version's
    machinery is torn down.  The lifecycle state is not stored: the registry
    derives it from the routing record on read.
    """
    return {
        "version": int(version),
        "deployed_at": time.time(),
        "spec": copy.deepcopy(spec),
        "num_replicas": int(spec.get("num_replicas", 1)),
        "undeployed": False,
    }


@dataclass
class ReplicaHealth:
    """Running health record of one container replica.

    Maintained by the :class:`~repro.management.health.HealthMonitor`;
    ``state`` is one of ``REPLICA_HEALTHY``/``REPLICA_QUARANTINED``/
    ``REPLICA_RECOVERING``.
    """

    replica_name: str
    model_key: str
    replica_id: int
    state: str = REPLICA_HEALTHY
    consecutive_failures: int = 0
    probes: int = 0
    failures: int = 0
    quarantines: int = 0
    restarts: int = 0
    last_probe_latency_ms: Optional[float] = None
    since: float = field(default_factory=time.monotonic)

    def mark(self, state: str) -> None:
        """Transition to ``state`` and restamp the transition time."""
        if state != self.state:
            self.state = state
            self.since = time.monotonic()
