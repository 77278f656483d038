"""Shared fixtures for the test suite.

Plain helpers (``run_async``) live in :mod:`helpers` so test modules can
import them without relying on conftest module-name resolution.  The
fixtures that build datasets and train models import :mod:`paperkit` inside
their bodies, so a serving test that takes none of them never loads it.

How many examples a property test draws is set here and nowhere else: the
``tier1`` profile is the default run, and ``--hypothesis-profile=deep`` (the
hypothesis plugin's own option) runs every property test at the largest
count any of them used to ask for.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import settings

from helpers import run_async  # noqa: F401  (re-exported for convenience)
from repro.rpc import jsonwire

settings.register_profile("tier1", max_examples=50, deadline=None)
settings.register_profile("deep", max_examples=800, deadline=None)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption(
        "--chaos",
        action="store_true",
        default=False,
        help="run the chaos tier (crash-injection / kill -9 recovery tests)",
    )
    parser.addoption(
        "--cluster",
        action="store_true",
        default=False,
        help="run the cluster tier (multi-process worker/ingress smoke tests)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: slow crash-injection test, skipped unless --chaos is given",
    )
    config.addinivalue_line(
        "markers",
        "shm: exercises the shared-memory ring transport; self-skips on "
        "platforms without multiprocessing.shared_memory",
    )
    config.addinivalue_line(
        "markers",
        "cluster: spawns real worker/ingress child processes, skipped unless "
        "--cluster is given",
    )


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    """After each module, freeze what is still alive out of the collector's
    reach.  Otherwise every generation-2 pass walks all the suite has kept so
    far, and by mid-run each pass stalls the running test's event loop for
    80–390 ms: long enough to miss a 100 ms SLO."""
    if nextitem is None or nextitem.module is not item.module:
        gc.collect()
        gc.freeze()


def pytest_collection_modifyitems(config, items):
    skip_chaos = pytest.mark.skip(reason="needs --chaos option to run")
    skip_cluster = pytest.mark.skip(reason="needs --cluster option to run")
    for item in items:
        if "chaos" in item.keywords and not config.getoption("--chaos"):
            item.add_marker(skip_chaos)
        if "cluster" in item.keywords and not config.getoption("--cluster"):
            item.add_marker(skip_cluster)


@pytest.fixture(scope="session")
def small_dataset():
    """A small, easy synthetic classification dataset (fast model training)."""
    from paperkit.datasets.synthetic import make_classification

    return make_classification(
        n_samples=400,
        n_features=20,
        n_classes=3,
        difficulty=0.5,
        name="unit-test",
        random_state=42,
    )


@pytest.fixture(scope="session")
def mnist_like_small():
    """A reduced-dimension MNIST-like dataset for serving tests."""
    from paperkit.datasets.images import load_mnist_like

    return load_mnist_like(n_samples=600, n_features=64, random_state=0)


@pytest.fixture(scope="session")
def trained_svm(mnist_like_small):
    """A linear SVM trained on the small MNIST-like dataset."""
    from paperkit.mlkit.linear import LinearSVM

    ds = mnist_like_small
    return LinearSVM(epochs=4, random_state=0).fit(ds.X_train, ds.y_train)


@pytest.fixture(scope="session")
def trained_logreg(mnist_like_small):
    """A logistic regression trained on the small MNIST-like dataset."""
    from paperkit.mlkit.linear import LogisticRegression

    ds = mnist_like_small
    return LogisticRegression(epochs=4, random_state=1).fit(ds.X_train, ds.y_train)


@pytest.fixture()
def rng():
    """A deterministic numpy Generator for per-test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture(params=["json", "orjson"])
def json_backend(request, monkeypatch):
    """Every JSON call at the edge and in the SDK made by the named backend."""
    if request.param == "orjson":
        pytest.importorskip("orjson")
    dumps, loads = jsonwire._BACKENDS[request.param]
    monkeypatch.setattr(jsonwire, "dumps", dumps)
    monkeypatch.setattr(jsonwire, "loads", loads)
    return request.param
