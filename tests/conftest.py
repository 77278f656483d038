"""Shared fixtures for the test suite.

Plain helpers (``run_async``) live in :mod:`helpers` so test modules can
import them without relying on conftest module-name resolution.  The
fixtures that build datasets and train models import :mod:`paperkit` inside
their bodies, so a serving test that takes none of them never loads it.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import run_async  # noqa: F401  (re-exported for convenience)


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
