"""k-nearest-neighbour classifier (brute-force distance computation)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from paperkit.mlkit.base import BaseEstimator, ClassifierMixin, check_Xy, check_2d


class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Brute-force kNN with optional training-set subsampling.

    Like the kernel SVM, prediction cost scales with the size of the stored
    training set, making kNN another useful "expensive container" for
    latency-profile experiments.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        max_reference_points: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self.max_reference_points = max_reference_points
        self.random_state = random_state

    def fit(self, X, y) -> "KNeighborsClassifier":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        if self.max_reference_points and X.shape[0] > self.max_reference_points:
            rng = np.random.default_rng(self.random_state)
            keep = rng.choice(X.shape[0], self.max_reference_points, replace=False)
            X, encoded = X[keep], encoded[keep]
        self._X = X
        self._y = encoded
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self._X.shape[1]}"
            )
        n_classes = self.classes_.shape[0]
        k = min(self.n_neighbors, self._X.shape[0])
        # Squared euclidean distances between every query and reference row.
        dists = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * (X @ self._X.T)
            + np.sum(self._X * self._X, axis=1)[None, :]
        )
        neighbor_idx = np.argpartition(dists, kth=k - 1, axis=1)[:, :k]
        proba = np.zeros((X.shape[0], n_classes))
        for i in range(X.shape[0]):
            votes = np.bincount(self._y[neighbor_idx[i]], minlength=n_classes)
            proba[i] = votes / k
        return proba
