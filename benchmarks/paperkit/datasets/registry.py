"""Dataset and model registries reproducing Tables 1 and 2 of the paper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from paperkit.mlkit.zoo import TABLE2_ZOO, ZooEntry


@dataclass(frozen=True)
class DatasetInfo:
    """One row of Table 1 plus the synthetic stand-in's parameters."""

    name: str
    data_type: str
    paper_size: str
    paper_features: str
    paper_labels: int
    repro_features: int
    repro_labels: int


#: Table 1 of the paper, extended with the reproduction's stand-in metadata.
DATASET_REGISTRY: Dict[str, DatasetInfo] = {
    "mnist": DatasetInfo(
        name="MNIST",
        data_type="Image",
        paper_size="70K",
        paper_features="28x28",
        paper_labels=10,
        repro_features=28 * 28,
        repro_labels=10,
    ),
    "cifar": DatasetInfo(
        name="CIFAR",
        data_type="Image",
        paper_size="60K",
        paper_features="32x32x3",
        paper_labels=10,
        repro_features=32 * 32 * 3,
        repro_labels=10,
    ),
    "imagenet": DatasetInfo(
        name="ImageNet",
        data_type="Image",
        paper_size="1.26M",
        paper_features="299x299x3",
        paper_labels=1000,
        repro_features=2048,
        repro_labels=100,
    ),
    "speech": DatasetInfo(
        name="Speech (TIMIT)",
        data_type="Sound",
        paper_size="6300",
        paper_features="5 sec.",
        paper_labels=39,
        repro_features=13,
        repro_labels=10,
    ),
}


def dataset_table() -> List[Dict[str, object]]:
    """Render Table 1 as a list of row dictionaries (one per dataset)."""
    rows = []
    for key in ("mnist", "cifar", "imagenet", "speech"):
        info = DATASET_REGISTRY[key]
        rows.append(
            {
                "dataset": info.name,
                "type": info.data_type,
                "size": info.paper_size,
                "features": info.paper_features,
                "labels": info.paper_labels,
                "repro_features": info.repro_features,
                "repro_labels": info.repro_labels,
            }
        )
    return rows


def model_zoo_table() -> List[Dict[str, object]]:
    """Render Table 2 (the deep-model zoo) as a list of row dictionaries."""
    rows = []
    for key in sorted(TABLE2_ZOO):
        entry: ZooEntry = TABLE2_ZOO[key]
        rows.append(
            {
                "framework": entry.framework,
                "model": entry.name,
                "paper_size": entry.paper_size,
                "repro_hidden_layers": entry.hidden_layers,
            }
        )
    return rows
