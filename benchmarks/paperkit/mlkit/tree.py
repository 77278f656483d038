"""CART-style decision tree classifier.

The tree is grown greedily by minimizing Gini impurity on axis-aligned
splits, with candidate thresholds drawn from feature quantiles to keep
training fast on the synthetic high-dimensional image stand-ins.  Prediction
traverses the tree per row, giving the moderate per-query cost the paper
measures for Scikit-Learn random forests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from paperkit.mlkit.base import BaseEstimator, ClassifierMixin, as_rng, check_Xy, check_2d


@dataclass
class _Node:
    """One node of the decision tree (leaf when ``feature`` is None)."""

    prediction: np.ndarray  # class-probability vector at this node
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return 1.0 - float(np.sum(proportions * proportions))


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """Greedy Gini-impurity decision tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum number of rows required to attempt a split.
    max_features:
        Number of candidate features examined per split (``None`` = sqrt of
        the feature count, the usual random-forest default).
    n_thresholds:
        Number of quantile-derived candidate thresholds per feature.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: Optional[int] = None,
        n_thresholds: int = 8,
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if n_thresholds < 1:
            raise ValueError("n_thresholds must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.n_thresholds = n_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        self._rng = as_rng(self.random_state)
        self.n_features_ = X.shape[1]
        n_classes = self.classes_.shape[0]
        self.root_ = self._grow(X, encoded, n_classes, depth=0)
        return self

    def _leaf(self, y: np.ndarray, n_classes: int) -> _Node:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        total = counts.sum()
        proba = counts / total if total > 0 else np.full(n_classes, 1.0 / n_classes)
        return _Node(prediction=proba)

    def _grow(self, X: np.ndarray, y: np.ndarray, n_classes: int, depth: int) -> _Node:
        node = self._leaf(y, n_classes)
        if (
            depth >= self.max_depth
            or X.shape[0] < self.min_samples_split
            or np.unique(y).shape[0] == 1
        ):
            return node

        n_features = X.shape[1]
        if self.max_features is None:
            n_candidates = max(1, int(np.sqrt(n_features)))
        else:
            n_candidates = min(self.max_features, n_features)
        candidate_features = self._rng.choice(n_features, size=n_candidates, replace=False)

        parent_counts = np.bincount(y, minlength=n_classes)
        parent_impurity = _gini(parent_counts)
        best_gain = 1e-7
        best: Optional[tuple] = None

        quantiles = np.linspace(0.1, 0.9, self.n_thresholds)
        for feature in candidate_features:
            column = X[:, feature]
            thresholds = np.unique(np.quantile(column, quantiles))
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = X.shape[0] - n_left
                if n_left == 0 or n_right == 0:
                    continue
                left_counts = np.bincount(y[left_mask], minlength=n_classes)
                right_counts = parent_counts - left_counts
                weighted = (
                    n_left * _gini(left_counts) + n_right * _gini(right_counts)
                ) / X.shape[0]
                gain = parent_impurity - weighted
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask)

        if best is None:
            return node

        feature, threshold, left_mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[left_mask], y[left_mask], n_classes, depth + 1)
        node.right = self._grow(X[~left_mask], y[~left_mask], n_classes, depth + 1)
        return node

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on {self.n_features_}"
            )
        out = np.empty((X.shape[0], self.classes_.shape[0]))
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)
