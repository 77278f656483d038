"""Table 2 — the deep-learning model zoo used for the ImageNet ensemble.

Regenerates the model-zoo table and trains the five MLP stand-ins on the
ImageNet-like dataset, verifying the zoo spans a meaningful range of model
capacities (parameter counts) and that deeper members are at least as
accurate as the shallowest one — the property the Figure 7 ensemble relies
on.
"""

import pytest

from conftest import record_result
from paperkit.datasets.images import load_imagenet_like
from paperkit.datasets.registry import model_zoo_table
from paperkit.mlkit.zoo import TABLE2_ZOO, build_zoo_model
from paperkit.reporting import format_table


@pytest.fixture(scope="module")
def imagenet_small():
    return load_imagenet_like(n_samples=1200, n_classes=20, n_features=256, random_state=2)


def test_table2_model_zoo(benchmark, imagenet_small):
    ds = imagenet_small
    rows = []

    def train_zoo():
        trained = {}
        for key in sorted(TABLE2_ZOO):
            model = build_zoo_model(key, random_state=0)
            model.fit(ds.X_train, ds.y_train)
            trained[key] = model
        return trained

    trained = benchmark.pedantic(train_zoo, rounds=1, iterations=1)

    registry_rows = {row["model"]: row for row in model_zoo_table()}
    for key in sorted(TABLE2_ZOO):
        entry = TABLE2_ZOO[key]
        model = trained[key]
        rows.append(
            {
                "framework": entry.framework,
                "model": entry.name,
                "paper_size": entry.paper_size,
                "repro_layers": model.n_layers_,
                "repro_parameters": model.n_parameters_,
                "top1_accuracy": model.score(ds.X_test, ds.y_test),
            }
        )
    record_result("table2_deep_models", format_table(rows, title="Table 2: deep model zoo"))

    assert len(registry_rows) == 5
    parameters = [row["repro_parameters"] for row in rows]
    assert max(parameters) > 2 * min(parameters)
    by_name = {row["model"]: row for row in rows}
    assert by_name["ResNet-152"]["top1_accuracy"] >= by_name["CaffeNet"]["top1_accuracy"] - 0.05
