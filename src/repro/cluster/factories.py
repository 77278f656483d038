"""Named container factories shared by workers and the ingress.

A worker daemon cannot receive a Python callable over the wire, so remote
deployments name their container factory (``deployment.factory_name``) and
every worker resolves that name against a registry like this one — the same
indirection the durable store already uses for cold-start restores.  The
ingress registers the *same* names so REST deploys validate locally even
though the factory is only ever called inside a worker.

The default registry covers the built-in containers; custom fleets point
workers at their own mapping via ``python -m repro.cluster.worker
--factories pkg.module:ATTR``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.containers.base import ModelContainer
from repro.containers.busy import DeviceBoundContainer
from repro.containers.noop import NoOpContainer
from repro.core.exceptions import ConfigurationError

#: name -> zero-arg factory returning a fresh ModelContainer.
FactoryMap = Dict[str, Callable[[], ModelContainer]]


def default_factories() -> FactoryMap:
    """The built-in factory names every worker understands."""
    return {
        "noop": lambda: NoOpContainer(),
        "noop_touch": lambda: NoOpContainer(touch_inputs=True),
        "device_1ms": lambda: DeviceBoundContainer(ms_per_input=1.0),
        "echo": lambda: NoOpContainer(output=1),
    }


def load_factories(spec: str) -> FactoryMap:
    """Resolve a ``pkg.module:ATTR`` spec to a factory mapping.

    ``ATTR`` may be a dict of factories or a zero-arg callable returning
    one, so test suites can parameterize the mapping.
    """
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ConfigurationError(
            f"factory spec {spec!r} must look like 'pkg.module:ATTR'"
        )
    try:
        module = importlib.import_module(module_name)
        obj = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(f"cannot load factories from {spec!r}: {exc}") from exc
    factories = obj() if callable(obj) and not isinstance(obj, dict) else obj
    if not isinstance(factories, dict):
        raise ConfigurationError(
            f"factory spec {spec!r} resolved to {type(factories).__name__}, "
            "expected a dict of name -> factory"
        )
    return dict(factories)


__all__ = ["FactoryMap", "default_factories", "load_factories"]
