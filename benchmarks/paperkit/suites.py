"""Pre-built model suites shared by the benchmarks and examples.

The paper reuses a few model line-ups across experiments: the six MNIST
containers of Figure 3/4, the five-model ensembles of Figures 7/8, and the
per-dialect speech models of Figure 10.  Building them in one place keeps
the benchmark targets thin and guarantees the same calibration everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from paperkit.datasets.speech import TimitLikeCorpus, utterances_to_fixed_features
from paperkit.datasets.synthetic import SyntheticClassification
from paperkit.mlkit.forest import RandomForestClassifier
from paperkit.mlkit.kernel import KernelSVM
from paperkit.mlkit.linear import LinearSVM, LogisticRegression
from paperkit.mlkit.mlp import MLPClassifier
from paperkit.mlkit.naive_bayes import GaussianNB
from paperkit.mlkit.neighbors import KNeighborsClassifier
from paperkit.overhead import LanguageOverheadContainer
from repro.containers.adapters import ClassifierContainer
from repro.containers.base import ModelContainer
from repro.containers.noop import NoOpContainer


@dataclass
class ContainerSpec:
    """A named container factory plus its reporting metadata."""

    name: str
    framework: str
    factory: Callable[[], ModelContainer]


def figure3_container_suite(
    dataset: SyntheticClassification,
    random_state: int = 0,
    kernel_support_vectors: int = 1500,
) -> List[ContainerSpec]:
    """The six model containers profiled in Figure 3, trained on ``dataset``.

    * No-Op — pure system overhead.
    * Linear SVM (SKLearn flavour) — vectorised inference with a noticeable
      per-batch fixed cost (BLAS-style: cheap marginal cost per item).
    * Linear SVM (PySpark flavour) — low fixed cost but a higher per-item
      cost, reproducing Spark's efficiency on small batches (Figure 5).
    * Random Forest (SKLearn).
    * Kernel SVM (SKLearn) — the expensive container.
    * Logistic Regression (SKLearn).
    """
    X, y = dataset.X_train, dataset.y_train
    svm = LinearSVM(epochs=5, random_state=random_state).fit(X, y)
    logreg = LogisticRegression(epochs=5, random_state=random_state + 1).fit(X, y)
    forest = RandomForestClassifier(
        n_estimators=8, max_depth=8, random_state=random_state + 2
    ).fit(X, y)
    kernel = KernelSVM(
        max_support_vectors=kernel_support_vectors, random_state=random_state + 3
    ).fit(X, y)

    return [
        ContainerSpec("no-op", "noop", lambda: NoOpContainer()),
        ContainerSpec(
            "linear-svm-sklearn",
            "sklearn",
            lambda: LanguageOverheadContainer(
                ClassifierContainer(svm),
                per_batch_overhead_ms=0.4,
                per_item_overhead_us=1.0,
            ),
        ),
        ContainerSpec(
            "linear-svm-pyspark",
            "pyspark",
            lambda: LanguageOverheadContainer(
                ClassifierContainer(svm),
                per_batch_overhead_ms=0.05,
                per_item_overhead_us=25.0,
            ),
        ),
        ContainerSpec(
            "random-forest-sklearn",
            "sklearn",
            lambda: ClassifierContainer(forest),
        ),
        ContainerSpec(
            "kernel-svm-sklearn",
            "sklearn",
            lambda: ClassifierContainer(kernel),
        ),
        ContainerSpec(
            "logistic-regression-sklearn",
            "sklearn",
            lambda: ClassifierContainer(logreg),
        ),
    ]


def heterogeneous_ensemble(
    dataset: SyntheticClassification,
    n_models: int = 5,
    random_state: int = 0,
) -> Dict[str, object]:
    """Train ``n_models`` models of deliberately different quality.

    Mirrors the Figure 8 setup ("five different Caffe models with varying
    levels of accuracy"): the accuracy spread is created the way it arises in
    practice — weaker models see less data, noisier labels or fewer features —
    so model 1 is clearly the weakest and the last model is the best.
    Different model families keep the ensemble's errors decorrelated, which is
    what makes the Figure 7 agreement-based confidence informative.
    """
    if not 2 <= n_models <= 8:
        raise ValueError("n_models must be between 2 and 8")
    rng = np.random.default_rng(random_state)
    X, y = dataset.X_train, dataset.y_train
    n = X.shape[0]

    def subsample(fraction: float):
        keep = rng.choice(n, size=max(int(n * fraction), 20), replace=False)
        return X[keep], y[keep]

    def noisy_labels(noise: float):
        flipped = y.copy()
        mask = rng.random(n) < noise
        flipped[mask] = rng.integers(0, dataset.n_classes, size=int(mask.sum()))
        return X, flipped

    # (name, estimator, training-view builder) from weakest to strongest.
    candidates = [
        (
            "model-1-small-sample-nb",
            GaussianNB(),
            lambda: subsample(0.15),
        ),
        (
            "model-2-noisy-forest",
            RandomForestClassifier(n_estimators=4, max_depth=4, random_state=random_state),
            lambda: noisy_labels(0.20),
        ),
        (
            "model-3-noisy-linear-svm",
            LinearSVM(epochs=4, random_state=random_state + 1),
            lambda: noisy_labels(0.10),
        ),
        (
            "model-4-logreg",
            LogisticRegression(epochs=8, random_state=random_state + 2),
            lambda: subsample(0.8),
        ),
        (
            "model-5-mlp",
            MLPClassifier(hidden_layers=(64, 32), epochs=25, learning_rate=0.03, random_state=random_state + 3),
            lambda: (X, y),
        ),
        (
            "model-6-knn",
            KNeighborsClassifier(n_neighbors=7, max_reference_points=1500, random_state=random_state + 4),
            lambda: subsample(0.5),
        ),
        (
            "model-7-deep-mlp",
            MLPClassifier(hidden_layers=(96, 64, 32), epochs=30, learning_rate=0.03, random_state=random_state + 5),
            lambda: (X, y),
        ),
        (
            "model-8-forest",
            RandomForestClassifier(n_estimators=10, max_depth=10, random_state=random_state + 6),
            lambda: (X, y),
        ),
    ]
    models = {}
    for name, model, view in candidates[:n_models]:
        X_view, y_view = view()
        models[name] = model.fit(X_view, y_view)
    return models


def ensemble_prediction_matrix(
    models: Dict[str, object], X: np.ndarray
) -> Dict[str, np.ndarray]:
    """Evaluate every model on ``X`` and return the per-model label arrays."""
    return {name: np.asarray(model.predict(X)) for name, model in models.items()}


def dialect_model_suite(
    corpus: TimitLikeCorpus,
    random_state: int = 0,
) -> Tuple[Dict[str, object], str]:
    """Train one model per dialect plus a dialect-oblivious global model.

    Returns ``(models, global_model_name)`` where ``models`` maps model name
    to a fitted classifier over the fixed-length utterance features.  Used by
    the Figure 10 personalization experiment.
    """
    models: Dict[str, object] = {}
    for dialect in range(corpus.n_dialects):
        utterances = corpus.utterances_for_dialect(dialect, split="train")
        if not utterances:
            continue
        X, y = utterances_to_fixed_features(utterances)
        model = LogisticRegression(epochs=30, learning_rate=0.1, random_state=random_state + dialect)
        models[f"dialect-{dialect}"] = model.fit(X, y)
    X_all, y_all = utterances_to_fixed_features(corpus.train)
    global_name = "no-dialect-global"
    models[global_name] = LogisticRegression(
        epochs=30, learning_rate=0.1, random_state=random_state + 100
    ).fit(X_all, y_all)
    return models, global_name


def build_user_streams(
    corpus: TimitLikeCorpus,
    models: Dict[str, object],
    max_steps: int = 9,
) -> Tuple[Dict[str, list], Dict[str, int]]:
    """Build per-user interaction streams for the personalization experiment.

    Each stream entry is ``(step, per_model_predictions, true_label)`` for one
    utterance of one held-out test speaker.
    """
    user_streams: Dict[str, list] = {}
    dialect_of_user: Dict[str, int] = {}
    for speaker in corpus.test_speakers():
        utterances = corpus.utterances_for_speaker(speaker)[:max_steps]
        if not utterances:
            continue
        X, y = utterances_to_fixed_features(utterances)
        per_model_all = {name: np.asarray(model.predict(X)) for name, model in models.items()}
        stream = []
        for step in range(X.shape[0]):
            per_model = {name: per_model_all[name][step] for name in models}
            stream.append((step, per_model, y[step]))
        user_key = f"user-{speaker}"
        user_streams[user_key] = stream
        dialect_of_user[user_key] = utterances[0].dialect
    return user_streams, dialect_of_user
