"""Deep-model zoo: named MLP architectures standing in for Table 2's networks.

The paper's ImageNet ensemble (Table 2) combines five off-the-shelf deep
networks of very different cost: VGG (13 conv + 3 FC), GoogLeNet (96 conv),
ResNet-152, CaffeNet and Inception-v3.  Here each named architecture maps to
an :class:`~repro.mlkit.mlp.MLPClassifier` whose depth/width ordering
preserves the *relative* inference cost and accuracy ranking, which is what
the ensemble-accuracy and serving-comparison experiments depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.mlkit.mlp import MLPClassifier


@dataclass(frozen=True)
class ZooEntry:
    """Description of one zoo architecture.

    Attributes
    ----------
    name:
        Architecture name as used in the paper.
    framework:
        Framework the paper attributes the model to (Caffe or TensorFlow).
    paper_size:
        Human-readable layer description from Table 2.
    hidden_layers:
        MLP hidden-layer widths used by the reproduction.
    epochs:
        Training epochs; deeper stand-ins get a few more epochs so the
        accuracy ordering (deeper = more accurate) matches the paper's zoo.
    """

    name: str
    framework: str
    paper_size: str
    hidden_layers: Tuple[int, ...]
    epochs: int


#: The Table 2 model zoo.  Ordered roughly from cheapest to most expensive.
TABLE2_ZOO: Dict[str, ZooEntry] = {
    "caffenet": ZooEntry(
        name="CaffeNet",
        framework="Caffe",
        paper_size="5 Conv. and 3 FC",
        hidden_layers=(64,),
        epochs=12,
    ),
    "vgg": ZooEntry(
        name="VGG",
        framework="Caffe",
        paper_size="13 Conv. and 3 FC",
        hidden_layers=(128, 64),
        epochs=16,
    ),
    "inception": ZooEntry(
        name="Inception-v3",
        framework="TensorFlow",
        paper_size="6 Conv, 1 FC, & 3 Incept.",
        hidden_layers=(160, 96),
        epochs=18,
    ),
    "googlenet": ZooEntry(
        name="GoogLeNet",
        framework="Caffe",
        paper_size="96 Conv. and 5 FC",
        hidden_layers=(192, 128, 64),
        epochs=20,
    ),
    "resnet": ZooEntry(
        name="ResNet-152",
        framework="Caffe",
        paper_size="151 Conv. and 1 FC",
        hidden_layers=(256, 128, 64),
        epochs=24,
    ),
}


def build_zoo_model(key: str, random_state: Optional[int] = None) -> MLPClassifier:
    """Instantiate the (untrained) MLP stand-in for one zoo architecture."""
    entry = TABLE2_ZOO.get(key)
    if entry is None:
        raise KeyError(f"unknown zoo model '{key}', expected one of {sorted(TABLE2_ZOO)}")
    return MLPClassifier(
        hidden_layers=entry.hidden_layers,
        epochs=entry.epochs,
        learning_rate=0.05,
        random_state=random_state,
    )


#: The three TensorFlow models of the Figure 11 serving comparison, mapped to
#: MLP stand-ins of increasing cost, together with the hand-tuned batch sizes
#: the paper uses for TensorFlow Serving.
FIGURE11_MODELS: Dict[str, Dict[str, object]] = {
    "mnist": {
        "description": "4-layer CNN on MNIST (paper) -> small MLP",
        "hidden_layers": (64, 32),
        "static_batch_size": 512,
    },
    "cifar": {
        "description": "AlexNet on CIFAR-10 (paper) -> medium MLP",
        "hidden_layers": (256, 128),
        "static_batch_size": 128,
    },
    "imagenet": {
        "description": "Inception-v3 on ImageNet (paper) -> large MLP",
        "hidden_layers": (512, 256, 128),
        "static_batch_size": 16,
    },
}


def build_figure11_model(key: str, random_state: Optional[int] = None) -> MLPClassifier:
    """Instantiate the MLP stand-in for one Figure 11 serving workload."""
    spec = FIGURE11_MODELS.get(key)
    if spec is None:
        raise KeyError(
            f"unknown figure-11 model '{key}', expected one of {sorted(FIGURE11_MODELS)}"
        )
    return MLPClassifier(
        hidden_layers=spec["hidden_layers"],
        epochs=8,
        random_state=random_state,
    )
