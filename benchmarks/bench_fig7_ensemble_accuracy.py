"""Figure 7 — ensemble prediction accuracy and agreement-based confidence.

Serves five-model ensembles through Clipper's ``"exp4"`` policy, without
feedback, on the CIFAR-like (top-1 error) and ImageNet-like (top-5 error via
a widened agreement criterion) stand-ins, reporting the best single model's
error, the ensemble's error, and the error of the confident (4-agree /
5-agree, read from ``Prediction.confidence``) versus unsure query groups
together with the fraction of queries in each group.  Shape checks mirror
the paper: the ensemble is at least as accurate as the best single model,
and the confident group has much lower error than the unsure group.
"""

import pytest

from conftest import record_result
from paperkit.datasets.images import load_imagenet_like
from paperkit.served_selection import ensemble_accuracy_experiment
from paperkit.reporting import format_table
from paperkit.suites import ensemble_prediction_matrix, heterogeneous_ensemble


@pytest.fixture(scope="module")
def imagenet_ensemble():
    dataset = load_imagenet_like(n_samples=1500, n_classes=20, n_features=256, random_state=2)
    models = heterogeneous_ensemble(dataset, n_models=5, random_state=3)
    predictions = ensemble_prediction_matrix(models, dataset.X_test)
    return predictions, dataset.y_test


def test_fig7_cifar_ensemble_accuracy(benchmark, cifar_ensemble):
    _, predictions, y_true = cifar_ensemble

    def run():
        return {
            threshold: ensemble_accuracy_experiment(
                predictions, y_true, agreement_threshold=threshold, dataset="cifar-like"
            )
            for threshold in (4, 5)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [results[threshold].as_row() for threshold in (4, 5)]
    record_result(
        "fig7_cifar_ensemble", format_table(rows, title="Figure 7 (CIFAR-like): top-1 error")
    )

    for threshold in (4, 5):
        result = results[threshold]
        assert result.ensemble_error <= result.single_model_error + 0.02
        assert result.confident_error < result.unsure_error
        assert 0.0 < result.confident_fraction < 1.0


def test_fig7_imagenet_ensemble_accuracy(benchmark, imagenet_ensemble):
    predictions, y_true = imagenet_ensemble

    def run():
        return ensemble_accuracy_experiment(
            predictions, y_true, agreement_threshold=4, dataset="imagenet-like"
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "fig7_imagenet_ensemble",
        format_table([result.as_row()], title="Figure 7 (ImageNet-like): top-1 error"),
    )
    assert result.confident_error < result.ensemble_error
    assert result.unsure_error > result.confident_error
