"""Random forest classifier built from bagged :class:`DecisionTreeClassifier` trees."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from paperkit.mlkit.base import BaseEstimator, ClassifierMixin, as_rng, check_Xy, check_2d
from paperkit.mlkit.tree import DecisionTreeClassifier


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap-aggregated decision trees with feature subsampling.

    Each tree is trained on a bootstrap resample of the data and restricted
    to sqrt(n_features) candidate features per split, the standard recipe.
    Prediction averages the per-tree class-probability vectors, which is both
    the usual bagging estimator and the source of the per-tree variance that
    the paper's agreement-based confidence scores (Figure 7) rely on.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: Optional[int] = None,
        n_thresholds: int = 8,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.n_thresholds = n_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        rng = as_rng(self.random_state)
        self.n_features_ = X.shape[1]
        self.estimators_: List[DecisionTreeClassifier] = []
        n = X.shape[0]
        for _ in range(self.n_estimators):
            sample = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=self.max_features,
                n_thresholds=self.n_thresholds,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            # Trees are trained on integer-encoded labels so their per-tree
            # probability columns line up; decode happens at the forest level.
            tree.fit(X[sample], encoded[sample])
            self.estimators_.append(tree)
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, forest was fit on {self.n_features_}"
            )
        n_classes = self.classes_.shape[0]
        total = np.zeros((X.shape[0], n_classes))
        for tree in self.estimators_:
            tree_proba = tree.predict_proba(X)
            # A bootstrap sample may miss some classes entirely; align columns
            # by the tree's own (integer) classes_.
            aligned = np.zeros_like(total)
            aligned[:, tree.classes_.astype(int)] = tree_proba
            total += aligned
        return total / self.n_estimators
