"""Simulated model degradation for the online-learning experiments.

The selection-layer experiment of Figure 8 replays a stream of labelled
queries through the policies and, for a span of queries, corrupts the best
model's predictions; :func:`degrade_prediction` is that corruption.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def degrade_prediction(
    prediction: Any,
    n_classes: int,
    rng: np.random.Generator,
    corruption_rate: float = 0.9,
) -> Any:
    """Corrupt a model prediction with the given probability.

    Used to simulate the "severe model degradation" of Figure 8: while the
    degradation window is active, the failing model's outputs are replaced by
    a uniformly random wrong label with probability ``corruption_rate``.
    """
    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError("corruption_rate must be in [0, 1]")
    if rng.random() >= corruption_rate:
        return prediction
    wrong = int(rng.integers(0, n_classes))
    if wrong == prediction:
        wrong = (wrong + 1) % n_classes
    return wrong
