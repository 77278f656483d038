"""MNIST-, CIFAR- and ImageNet-like synthetic object-recognition datasets.

Each loader preserves the corresponding dataset's input dimensionality and
label cardinality (Table 1) while allowing a smaller sample count for fast
laptop-scale experiments.  Difficulty increases from MNIST to ImageNet so the
accuracy spread between cheap and expensive models matches the paper's
qualitative behaviour.
"""

from __future__ import annotations

from typing import Optional

from paperkit.datasets.synthetic import SyntheticClassification, make_classification

#: Paper input dimensionalities (Table 1).
MNIST_SHAPE = (28, 28)
CIFAR_SHAPE = (32, 32, 3)
#: The paper's ImageNet models consume 299x299x3 images; the synthetic
#: stand-in uses a reduced feature dimension (as if pre-pooled embeddings)
#: so laptop-scale serving remains feasible, but keeps the 1000-way labels
#: scaled down to 100 classes for trainability of the numpy zoo.
IMAGENET_FEATURES = 2048
IMAGENET_CLASSES = 100


def load_mnist_like(
    n_samples: int = 4000,
    random_state: Optional[int] = 0,
    n_features: Optional[int] = None,
) -> SyntheticClassification:
    """MNIST stand-in: 784 features (28×28), 10 classes, easy separability."""
    n_features = n_features or 28 * 28
    return make_classification(
        n_samples=n_samples,
        n_features=n_features,
        n_classes=10,
        n_informative=24,
        difficulty=0.5,
        name="mnist-like",
        input_shape=MNIST_SHAPE if n_features == 28 * 28 else (n_features,),
        random_state=random_state,
    )


def load_cifar_like(
    n_samples: int = 4000,
    random_state: Optional[int] = 1,
    n_features: Optional[int] = None,
) -> SyntheticClassification:
    """CIFAR-10 stand-in: 3072 features (32×32×3), 10 classes, moderate difficulty."""
    n_features = n_features or 32 * 32 * 3
    return make_classification(
        n_samples=n_samples,
        n_features=n_features,
        n_classes=10,
        n_informative=24,
        difficulty=1.5,
        name="cifar-like",
        input_shape=CIFAR_SHAPE if n_features == 32 * 32 * 3 else (n_features,),
        random_state=random_state,
    )


def load_imagenet_like(
    n_samples: int = 3000,
    n_classes: int = IMAGENET_CLASSES,
    random_state: Optional[int] = 2,
    n_features: int = IMAGENET_FEATURES,
) -> SyntheticClassification:
    """ImageNet stand-in: high-dimensional features, many classes, hard task."""
    return make_classification(
        n_samples=n_samples,
        n_features=n_features,
        n_classes=n_classes,
        n_informative=48,
        difficulty=2.5,
        name="imagenet-like",
        input_shape=(n_features,),
        random_state=random_state,
    )
