"""Evaluation metrics used across the benchmarks.

The figure benchmarks report top-1 accuracy and error of the models and
ensembles they serve; those are the primitives provided here.
"""

from __future__ import annotations

import numpy as np


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly-matching predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of an empty sample")
    return float(np.mean(y_true == y_pred))


def error_rate(y_true, y_pred) -> float:
    """Top-1 error rate, ``1 - accuracy``."""
    return 1.0 - accuracy(y_true, y_pred)
