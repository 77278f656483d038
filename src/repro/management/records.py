"""Shared vocabulary of the management plane.

The registry persists plain dicts (JSON-friendly, like the selection-policy
states) in the :class:`~repro.state.kvstore.KeyValueStore`; this module
defines the lifecycle states the registry derives for each version and the
helper that builds a version record.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Dict

#: Lifecycle states of one deployed model version.
VERSION_SERVING = "serving"      # the active version: receives traffic
VERSION_STAGED = "staged"        # deployed and warm, awaiting rollout
VERSION_CANARY = "canary"        # serving a weighted slice during a rollout
VERSION_RETIRED = "retired"      # previously serving; kept warm for rollback
VERSION_UNDEPLOYED = "undeployed"  # machinery torn down; record kept for history


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
