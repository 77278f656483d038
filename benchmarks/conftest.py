"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation.
Trained model suites and datasets are session-scoped so that model training
is paid once, and every benchmark records the table it reproduces under
``benchmarks/results/`` (untracked) so the numbers can be inspected.  The
serving engine's own overhead is not measured here but by the repo's
benchmark, ``benchmarks/serving/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.datasets import load_cifar_like, load_mnist_like
from repro.evaluation.suites import (
    ensemble_prediction_matrix,
    figure3_container_suite,
    heterogeneous_ensemble,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Latency SLO used throughout the paper's micro-benchmarks.
SLO_MS = 20.0


def record_result(name: str, text: str) -> None:
    """Persist one benchmark's reproduced table under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo to stdout so ``pytest -s`` shows the table inline.
    print(f"\n[{name}]\n{text}")


@pytest.fixture(scope="session")
def mnist_serving_dataset():
    """Reduced-dimension MNIST-like data used by the serving benchmarks."""
    return load_mnist_like(n_samples=1600, n_features=196, random_state=0)


@pytest.fixture(scope="session")
def cifar_eval_dataset():
    """CIFAR-like data used by the selection-layer benchmarks."""
    return load_cifar_like(n_samples=2000, n_features=256, random_state=1)


@pytest.fixture(scope="session")
def figure3_suite(mnist_serving_dataset):
    """The six Figure 3 containers trained on the MNIST-like dataset."""
    return figure3_container_suite(
        mnist_serving_dataset, random_state=0, kernel_support_vectors=600
    )


@pytest.fixture(scope="session")
def cifar_ensemble(cifar_eval_dataset):
    """The five-model heterogeneous ensemble used in Figures 7, 8 and 9."""
    models = heterogeneous_ensemble(cifar_eval_dataset, n_models=5, random_state=0)
    predictions = ensemble_prediction_matrix(models, cifar_eval_dataset.X_test)
    return models, predictions, cifar_eval_dataset.y_test
