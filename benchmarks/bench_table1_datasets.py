"""Table 1 — the benchmark dataset inventory.

Regenerates the dataset table (name, type, size, input features, label
count) from the registry and verifies the synthetic stand-ins are generated
with the registered dimensionality.  The benchmarked operation is dataset
generation itself, which every other experiment depends on.
"""

from conftest import record_result
from paperkit.datasets.images import load_mnist_like
from paperkit.datasets.registry import dataset_table
from paperkit.reporting import format_table


def test_table1_dataset_registry(benchmark):
    rows = benchmark(dataset_table)
    assert len(rows) == 4
    record_result("table1_datasets", format_table(rows, title="Table 1: Datasets"))


def test_table1_generator_matches_registry(benchmark):
    dataset = benchmark.pedantic(
        lambda: load_mnist_like(n_samples=1000), rounds=1, iterations=1
    )
    assert dataset.n_features == 28 * 28
    assert dataset.n_classes == 10
