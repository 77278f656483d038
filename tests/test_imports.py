"""Every module under ``repro`` imports, and importing one loads only what it uses.

A module deleted from the package must take its importers with it; this
walks the whole tree so a dangling ``from repro.<gone> import ...`` fails
here rather than at a user's first call.

The boundary contract: a worker process hosts containers and never loads
the serving engine.  The sub-packages export nothing and the top-level
names resolve on first access, so ``import repro.cluster.worker`` in a fresh
interpreter must leave every engine module out of ``sys.modules``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)

#: Modules (a package stands for itself and everything under it) that a
#: worker process must not import.
ENGINE = (
    "repro.core.clipper",
    "repro.batching",
    "repro.selection",
    "repro.routing",
    "repro.management",
    "repro.api",
    "repro.client",
    "repro.observability.prometheus",
)


def loaded_after(statement: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_a_worker_does_not_load_the_serving_engine():
    loaded = loaded_after("import repro.cluster.worker")
    assert "repro.cluster.worker" in loaded
    engine = [
        name for name in loaded
        if any(name == pkg or name.startswith(pkg + ".") for pkg in ENGINE)
    ]
    assert engine == []


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import repro") == ["repro"]


@pytest.mark.parametrize("name", repro.__all__)
def test_top_level_name_resolves(name):
    value = getattr(repro, name)
    if name != "__version__":
        assert value.__module__ == repro._EXPORTS[name]
