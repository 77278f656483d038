"""repro — a from-scratch Python reproduction of Clipper (NSDI 2017).

Clipper is a low-latency online prediction serving system that interposes
between end-user applications and machine learning frameworks.  It is split
into a *model abstraction layer* (prediction cache, adaptive batching, model
containers connected over a lightweight RPC system) and a *model selection
layer* (bandit-based single-model and ensemble selection policies, confidence
estimation, straggler mitigation and contextualization).

The top-level package names the most commonly used entry points so that a
downstream user can write::

    from repro import Clipper, ClipperConfig, ModelContainer

and get a working serving system; each is imported from its defining module
on first use.  Everywhere else, import a name from the module that defines
it (``core``, ``containers``, ``rpc`` and ``cluster`` export nothing).
Sub-packages:

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

import importlib

__version__ = "1.0.0"

# Where each top-level name is defined.  A name is imported on first access
# (PEP 562), so ``import repro.<sub>`` loads only ``<sub>`` and what it uses:
# a worker process hosting a container never loads the serving engine.
_EXPORTS = {
    "Clipper": "repro.core.clipper",
    "ClipperConfig": "repro.core.config",
    "BatchingConfig": "repro.core.config",
    "ModelDeployment": "repro.core.config",
    "ManagementFrontend": "repro.management.frontend",
    "QueryFrontend": "repro.core.frontend",
    "TrafficSplit": "repro.routing.split",
    "Query": "repro.core.types",
    "Prediction": "repro.core.types",
    "Feedback": "repro.core.types",
    "ModelContainer": "repro.containers.base",
    "SelectionPolicy": "repro.selection.policy",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
