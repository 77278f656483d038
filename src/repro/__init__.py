"""repro — a from-scratch Python reproduction of Clipper (NSDI 2017).

Clipper is a low-latency online prediction serving system that interposes
between end-user applications and machine learning frameworks.  It is split
into a *model abstraction layer* (prediction cache, adaptive batching, model
containers connected over a lightweight RPC system) and a *model selection
layer* (bandit-based single-model and ensemble selection policies, confidence
estimation, straggler mitigation and contextualization).

The top-level package re-exports the most commonly used entry points so that
a downstream user can write::

    from repro import Clipper, ClipperConfig, ModelContainer

and get a working serving system.  Sub-packages:

``repro.core``
    The Clipper serving engine, query frontend, configuration and metrics.
``repro.cache``
    Prediction cache with CLOCK/LRU eviction (paper §4.2).
``repro.batching``
    Adaptive batching queues and batch-size controllers (paper §4.3).
``repro.containers``
    Model containers and replica management (paper §4.4).
``repro.rpc``
    The lightweight RPC system connecting Clipper to model containers.
``repro.selection``
    Model selection policies: Exp3, Exp4, ensembles, contextualization (§5).
``repro.state``
    In-memory key-value store used for externalized selection state.
``repro.routing``
    The routing layer: traffic-split tables, deterministic weighted arm
    assignment, canary rollout lifecycle and metrics-driven promotion.
``repro.management``
    The management plane: versioned model registry, live rollout/rollback,
    runtime replica scaling and health-driven replica recovery.
``repro.api``
    The REST surface: typed application schemas, the structured error
    model, the versioned route table and the stdlib asyncio HTTP binding.
``repro.client``
    The client SDK (``ClipperClient`` / ``AdminClient``): applications talk
    to a served Clipper over HTTP without importing the serving engine.
``repro.mlkit``
    A from-scratch numpy machine-learning framework standing in for
    Scikit-Learn / Spark MLlib / Caffe / TensorFlow.
``repro.datasets``
    Synthetic stand-ins for MNIST, CIFAR-10, ImageNet and TIMIT.
``repro.workloads``
    Arrival processes and open/closed-loop load-generating clients.
``repro.cluster``
    The multi-process fleet: worker daemons, ingress tier and supervisor;
    the scale-out experiment (Fig. 6) runs on it.
``repro.baselines``
    TensorFlow-Serving-like comparator and the A/B-testing selection baseline.
"""

from repro.core.clipper import Clipper
from repro.core.config import BatchingConfig, ClipperConfig, ModelDeployment
from repro.core.frontend import QueryFrontend
from repro.core.types import Feedback, Prediction, Query
from repro.containers.base import ModelContainer
from repro.management.frontend import ManagementFrontend
from repro.routing.split import TrafficSplit
from repro.selection.policy import SelectionPolicy

__version__ = "1.0.0"

__all__ = [
    "Clipper",
    "ClipperConfig",
    "BatchingConfig",
    "ModelDeployment",
    "ManagementFrontend",
    "QueryFrontend",
    "TrafficSplit",
    "Query",
    "Prediction",
    "Feedback",
    "ModelContainer",
    "SelectionPolicy",
    "__version__",
]
