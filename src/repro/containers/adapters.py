"""Containers adapting fit/predict estimators to the batch prediction interface.

These are the equivalents of the paper's per-framework container bindings
(Scikit-Learn, Spark, Caffe, TensorFlow) — the adapter is a few lines
that stack the batch of inputs and calls the estimator's vectorised
prediction, exactly the shape of the paper's <25-line framework bindings.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.containers.base import ModelContainer


class ClassifierContainer(ModelContainer):
    """Serves any classifier with a scikit-learn style ``predict``/``predict_proba`` API.

    Parameters
    ----------
    model:
        A fitted classifier.
    return_proba:
        When true, each output is the class-probability vector; otherwise
        the predicted label (the common case for ensembles keyed on labels).
    framework:
        Reporting label, e.g. ``"sklearn"`` or ``"pyspark"``; the adapter
        behaviour is identical, matching the paper's observation that the
        same narrow interface covers every framework.
    """

    def __init__(
        self,
        model,
        return_proba: bool = False,
        framework: str = "mlkit",
    ) -> None:
        if not hasattr(model, "predict"):
            raise TypeError("model must expose a predict() method")
        self.model = model
        self.return_proba = return_proba
        self.framework = framework

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        if len(inputs) == 0:
            return []
        X = np.vstack([np.asarray(x, dtype=np.float64).reshape(1, -1) for x in inputs])
        if self.return_proba:
            proba = self.model.predict_proba(X)
            return [proba[i] for i in range(proba.shape[0])]
        labels = self.model.predict(X)
        return [_to_scalar(labels[i]) for i in range(len(inputs))]


def _to_scalar(value: Any) -> Any:
    """Convert numpy scalars to native Python values for clean serialization."""
    if isinstance(value, np.generic):
        return value.item()
    return value
