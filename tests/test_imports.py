"""Every module under ``repro`` imports.

A module deleted from the package must take its importers with it; this
walks the whole tree so a dangling ``from repro.<gone> import ...`` fails
here rather than at a user's first call.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
