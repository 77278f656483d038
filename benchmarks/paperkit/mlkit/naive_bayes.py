"""Gaussian naive Bayes classifier."""

from __future__ import annotations

import numpy as np

from paperkit.mlkit.base import BaseEstimator, ClassifierMixin, check_Xy, check_2d, softmax


class GaussianNB(BaseEstimator, ClassifierMixin):
    """Gaussian naive Bayes with per-class diagonal covariance.

    A cheap, well-calibrated-ish probabilistic model useful as a weak member
    of the heterogeneous ensembles in the selection-layer experiments.
    """

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        if var_smoothing <= 0:
            raise ValueError("var_smoothing must be positive")
        self.var_smoothing = var_smoothing

    def fit(self, X, y) -> "GaussianNB":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        n_classes = self.classes_.shape[0]
        n_features = X.shape[1]
        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.class_log_prior_ = np.zeros(n_classes)
        global_var = X.var(axis=0).max()
        smoothing = self.var_smoothing * (global_var if global_var > 0 else 1.0)
        for cls in range(n_classes):
            rows = X[encoded == cls]
            if rows.shape[0] == 0:
                # A class present in classes_ but absent after filtering can't
                # happen via fit, but guard anyway for robustness.
                self.theta_[cls] = X.mean(axis=0)
                self.var_[cls] = X.var(axis=0) + smoothing
                self.class_log_prior_[cls] = -np.inf
                continue
            self.theta_[cls] = rows.mean(axis=0)
            self.var_[cls] = rows.var(axis=0) + smoothing
            self.class_log_prior_[cls] = np.log(rows.shape[0] / X.shape[0])
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        log_likelihood = np.zeros((X.shape[0], self.classes_.shape[0]))
        for cls in range(self.classes_.shape[0]):
            diff = X - self.theta_[cls]
            log_prob = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[cls]) + diff * diff / self.var_[cls],
                axis=1,
            )
            log_likelihood[:, cls] = self.class_log_prior_[cls] + log_prob
        return log_likelihood

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self.theta_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self.theta_.shape[1]}"
            )
        return softmax(self._joint_log_likelihood(X))
