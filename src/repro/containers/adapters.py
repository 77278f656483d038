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
    """Serves any fitted classifier with a scikit-learn style ``predict``.

    Each output is the predicted label, a native Python scalar: the
    selection layer's ensembles vote on labels.  The same adapter serves
    every framework, matching the paper's observation that one narrow
    interface covers them all.
    """

    def __init__(self, model) -> None:
        if not hasattr(model, "predict"):
            raise TypeError("model must expose a predict() method")
        self.model = model

    def predict_batch(self, inputs: Sequence[Any]) -> List[Any]:
        if len(inputs) == 0:
            return []
        X = np.vstack([np.asarray(x, dtype=np.float64).reshape(1, -1) for x in inputs])
        labels = self.model.predict(X)
        return [_to_scalar(labels[i]) for i in range(len(inputs))]


def _to_scalar(value: Any) -> Any:
    """Convert numpy scalars to native Python values for clean serialization."""
    if isinstance(value, np.generic):
        return value.item()
    return value
