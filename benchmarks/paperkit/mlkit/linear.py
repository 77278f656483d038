"""Linear models: multi-class linear SVM and logistic regression.

Both models are trained with mini-batch stochastic gradient descent and
predict with a single dense matrix product, which is what makes them the
cheapest "real" model containers in the paper's latency profiles (Figure 3):
per-query cost is one vector-matrix multiply and batching amortizes the
fixed dispatch overhead almost perfectly.
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


class _LinearModelBase(BaseEstimator, ClassifierMixin):
    """Shared SGD loop for linear classifiers (weights + bias per class)."""

    def __init__(
        self,
        learning_rate: float = 0.05,
        regularization: float = 1e-4,
        epochs: int = 10,
        batch_size: int = 64,
        random_state: Optional[int] = None,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.epochs = epochs
        self.batch_size = batch_size
        self.random_state = random_state

    def fit(self, X, y):
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        rng = as_rng(self.random_state)
        n_samples, n_features = X.shape
        n_classes = self.classes_.shape[0]
        self.coef_ = rng.normal(0.0, 0.01, size=(n_features, n_classes))
        self.intercept_ = np.zeros(n_classes)
        for epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, self.batch_size):
                batch_idx = order[start : start + self.batch_size]
                self._sgd_step(X[batch_idx], encoded[batch_idx], epoch)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw per-class scores ``X @ coef_ + intercept_``."""
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self.coef_.shape[0]}"
            )
        return X @ self.coef_ + self.intercept_

    def _sgd_step(self, X_batch, y_batch, epoch: int) -> None:  # pragma: no cover
        raise NotImplementedError


class LinearSVM(_LinearModelBase):
    """Multi-class linear SVM trained with the Pegasos-style hinge-loss SGD.

    The multi-class extension uses one-vs-rest hinge losses with a shared
    SGD schedule.  ``predict_proba`` returns a softmax over margins so that
    linear SVMs can participate in probability-weighted ensembles.
    """

    def _sgd_step(self, X_batch, y_batch, epoch: int) -> None:
        n_classes = self.classes_.shape[0]
        # One-vs-rest targets in {-1, +1}.
        targets = one_hot(y_batch, n_classes) * 2.0 - 1.0
        margins = (X_batch @ self.coef_ + self.intercept_) * targets
        # Hinge subgradient: active where margin < 1.
        active = (margins < 1.0).astype(np.float64) * targets
        step = self.learning_rate / (1.0 + 0.1 * epoch)
        grad_w = -(X_batch.T @ active) / X_batch.shape[0]
        grad_w += self.regularization * self.coef_
        grad_b = -active.mean(axis=0)
        self.coef_ -= step * grad_w
        self.intercept_ -= step * grad_b

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return self._decode_labels(np.argmax(scores, axis=1))

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_function(X))


class LogisticRegression(_LinearModelBase):
    """Multinomial logistic regression trained with mini-batch SGD."""

    def _sgd_step(self, X_batch, y_batch, epoch: int) -> None:
        n_classes = self.classes_.shape[0]
        probs = softmax(X_batch @ self.coef_ + self.intercept_)
        targets = one_hot(y_batch, n_classes)
        error = probs - targets
        step = self.learning_rate / (1.0 + 0.1 * epoch)
        grad_w = (X_batch.T @ error) / X_batch.shape[0]
        grad_w += self.regularization * self.coef_
        grad_b = error.mean(axis=0)
        self.coef_ -= step * grad_w
        self.intercept_ -= step * grad_b

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_function(X))
