"""mlkit — a from-scratch numpy machine-learning framework.

This package is the substrate standing in for the machine learning frameworks
used in the Clipper paper (Scikit-Learn, Spark MLlib, Caffe and TensorFlow).
It provides trainable classifiers whose *latency profiles* span the
same range as the paper's model containers:

* :class:`~repro.mlkit.linear.LinearSVM` — a single matrix-vector product per
  query (the cheapest real model in Figure 3).
* :class:`~repro.mlkit.linear.LogisticRegression` — similar cost, probabilistic
  outputs.
* :class:`~repro.mlkit.kernel.KernelSVM` — RBF kernel evaluations against the
  support set, orders of magnitude more expensive per query (the most
  expensive container in Figure 3).
* :class:`~repro.mlkit.forest.RandomForestClassifier` — tree traversals with
  moderate per-query cost.
* :class:`~repro.mlkit.mlp.MLPClassifier` — feed-forward networks whose depth
  and width parameterize the "deep model zoo" of Table 2.

Every estimator follows the familiar ``fit`` / ``predict`` /
``predict_proba`` API and accepts an explicit ``random_state`` for
determinism.
"""

from repro.mlkit.base import BaseEstimator, ClassifierMixin, check_2d, check_Xy
from repro.mlkit.linear import LinearSVM, LogisticRegression
from repro.mlkit.kernel import KernelSVM
from repro.mlkit.tree import DecisionTreeClassifier
from repro.mlkit.forest import RandomForestClassifier
from repro.mlkit.neighbors import KNeighborsClassifier
from repro.mlkit.naive_bayes import GaussianNB
from repro.mlkit.mlp import MLPClassifier
from repro.mlkit import metrics
from repro.mlkit import zoo

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "check_2d",
    "check_Xy",
    "LinearSVM",
    "LogisticRegression",
    "KernelSVM",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "GaussianNB",
    "MLPClassifier",
    "metrics",
    "zoo",
]
