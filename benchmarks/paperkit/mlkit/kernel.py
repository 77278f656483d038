"""RBF kernel SVM — the expensive model container of Figure 3.

Training uses a kernel ridge-style least-squares fit against one-hot targets
on a (sub)set of support vectors, which keeps training tractable while
preserving the property the paper cares about: *prediction* requires
computing an RBF kernel between the query and every support vector, so the
per-query cost is O(n_support · n_features) and dominates any fixed batch
overhead.  This is exactly why the kernel SVM's maximum batch size under a
20 ms SLO is ~241× smaller than the linear SVM's in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from paperkit.mlkit.base import (
    BaseEstimator,
    ClassifierMixin,
    as_rng,
    check_Xy,
    check_2d,
    one_hot,
    softmax,
)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Dense RBF kernel matrix ``exp(-gamma * ||a - b||^2)``."""
    a_sq = np.sum(A * A, axis=1)[:, None]
    b_sq = np.sum(B * B, axis=1)[None, :]
    squared = a_sq + b_sq - 2.0 * (A @ B.T)
    np.maximum(squared, 0.0, out=squared)
    return np.exp(-gamma * squared)


class KernelSVM(BaseEstimator, ClassifierMixin):
    """Multi-class RBF kernel machine with a bounded support set.

    Parameters
    ----------
    gamma:
        RBF bandwidth; ``None`` uses ``1 / (n_features * Var(X))``.
    regularization:
        Ridge term added to the kernel system during training.
    max_support_vectors:
        Cap on the number of training rows kept as support vectors; a random
        subset is used when the training set is larger.  This bounds both
        training cost and, importantly for serving, per-query inference cost.
    """

    def __init__(
        self,
        gamma: Optional[float] = None,
        regularization: float = 1e-2,
        max_support_vectors: int = 2000,
        random_state: Optional[int] = None,
    ) -> None:
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        if max_support_vectors < 2:
            raise ValueError("max_support_vectors must be >= 2")
        self.gamma = gamma
        self.regularization = regularization
        self.max_support_vectors = max_support_vectors
        self.random_state = random_state

    def fit(self, X, y) -> "KernelSVM":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        rng = as_rng(self.random_state)
        if X.shape[0] > self.max_support_vectors:
            keep = rng.choice(X.shape[0], size=self.max_support_vectors, replace=False)
            X, encoded = X[keep], encoded[keep]
        self.support_vectors_ = X
        if self.gamma is None:
            variance = X.var()
            self.gamma_ = 1.0 / (X.shape[1] * variance) if variance > 0 else 1.0
        else:
            self.gamma_ = float(self.gamma)
        K = rbf_kernel(X, X, self.gamma_)
        targets = one_hot(encoded, self.classes_.shape[0]) * 2.0 - 1.0
        system = K + self.regularization * np.eye(K.shape[0])
        self.dual_coef_ = np.linalg.solve(system, targets)
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self.support_vectors_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on "
                f"{self.support_vectors_.shape[1]}"
            )
        K = rbf_kernel(X, self.support_vectors_, self.gamma_)
        return K @ self.dual_coef_

    def predict(self, X) -> np.ndarray:
        return self._decode_labels(np.argmax(self.decision_function(X), axis=1))

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_function(X))

    @property
    def n_support_(self) -> int:
        """Number of support vectors retained after fitting."""
        self._check_fitted()
        return int(self.support_vectors_.shape[0])
