"""Every module under ``repro`` and ``paperkit`` imports, and importing one loads only what it uses.

A module deleted from a package must take its importers with it; this
walks both trees so a dangling ``from repro.<gone> import ...`` fails
here rather than at a user's first call.

Two boundary contracts.  A worker process hosts containers and never loads
the serving engine: no sub-package but the client SDK binds a name in its
``__init__`` (one import path per name) and the top-level names resolve on
first access, so ``import repro.cluster.worker`` in a fresh
interpreter must leave every engine module out of ``sys.modules``; only
``repro`` itself and the SDK keep an ``__all__``.  And the
serving system never loads the paper kit (``benchmarks/paperkit``): the
dependency points one way, from the kit to ``repro``.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import paperkit
import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
KIT = os.path.dirname(os.path.dirname(os.path.abspath(paperkit.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
) + sorted(
    info.name for info in pkgutil.walk_packages(paperkit.__path__, prefix="paperkit.")
)

SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, prefix="repro.") if info.ispkg
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

#: What used to live under ``src/repro`` and now lives in the kit.
MOVED_OUT = (
    "repro.mlkit",
    "repro.datasets",
    "repro.evaluation",
    "repro.workloads",
    "repro.baselines",
    "repro.containers.overhead",
)


def loaded_after(statement: str, package: str = "repro") -> list:
    """The ``package`` modules a fresh interpreter holds after ``statement``.

    Both ``src`` and the kit's directory are on its path, so a module that
    is absent was not imported, not unreachable.
    """
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, KIT))},
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


@pytest.mark.parametrize("name", [p for p in SUBPACKAGES if p != "repro.client"])
def test_a_sub_package_binds_no_public_name(name):
    # ``repro.client`` is the SDK's public face; every other name is imported
    # from the module that defines it.
    code = f"import {name} as p\nprint([n for n in vars(p) if not n.startswith('_')])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.stdout.strip() == "[]"


def test_only_the_package_and_the_sdk_define_all():
    # An export list is a second import path for its names.
    defining = []
    for module in ["repro", *MODULES]:
        if module.startswith("repro"):
            path = importlib.util.find_spec(module).origin
            with open(path, encoding="utf-8") as source:
                tree = ast.parse(source.read())
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            ):
                defining.append(module)
    assert defining == ["repro", "repro.client"]


@pytest.mark.parametrize("name", repro.__all__)
def test_top_level_name_resolves(name):
    value = getattr(repro, name)
    if name != "__version__":
        assert value.__module__ == repro._EXPORTS[name]


def test_the_serving_system_loads_no_part_of_the_paper_kit():
    statement = (
        "import importlib.util, repro\n"
        "assert importlib.util.find_spec('paperkit') is not None\n"
        "[getattr(repro, name) for name in repro.__all__]"
    )
    assert loaded_after(statement, "paperkit") == []


def test_the_test_fixtures_load_the_kit_only_to_train_a_model():
    statement = f"sys.path.insert(0, {TESTS!r})\nimport conftest, helpers"
    assert loaded_after(statement, "paperkit") == []


@pytest.mark.parametrize("name", MOVED_OUT)
def test_the_paper_kit_is_gone_from_the_serving_package(name):
    assert importlib.util.find_spec(name) is None
