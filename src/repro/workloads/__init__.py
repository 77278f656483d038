"""Query workload generation: arrival processes and load-generating clients."""

from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
)
from repro.workloads.clients import ClosedLoopClient, OpenLoopClient, WorkloadResult

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "OpenLoopClient",
    "ClosedLoopClient",
    "WorkloadResult",
]
