"""Cold-start recovery: what a restore rebuilt from the registry's records.

The registry (on a :class:`~repro.state.durable.DurableKeyValueStore`)
survives a crash; the serving machinery does not.
:meth:`~repro.management.frontend.ManagementFrontend.restore_application`
rebuilds it — each version from its stored
:meth:`~repro.core.config.ModelDeployment.to_spec` through
:meth:`~repro.core.config.ModelDeployment.from_spec` (model containers
cannot be serialized; named factories are the durable names for them,
exactly as the REST deploy verb treats them), routing from the stored
routing record — and files a :class:`RecoveryReport` per application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RecoveryReport:
    """What one application's cold-start restore rebuilt (and could not)."""

    app_name: str
    versions_restored: int = 0
    routes_restored: int = 0
    canaries_resumed: int = 0
    #: Versions/routes that could not be rebuilt, each with a reason.
    skipped: List[Dict[str, Any]] = field(default_factory=list)
    #: The durable store's own load report, when it exposes one.
    store: Optional[Dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        """True when every registry record was restored."""
        return not self.skipped

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app_name": self.app_name,
            "versions_restored": self.versions_restored,
            "routes_restored": self.routes_restored,
            "canaries_resumed": self.canaries_resumed,
            "skipped": list(self.skipped),
            "complete": self.complete,
            "store": self.store,
        }
