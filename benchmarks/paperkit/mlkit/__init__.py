"""mlkit — a from-scratch numpy machine-learning framework.

This package is the substrate standing in for the machine learning frameworks
used in the Clipper paper (Scikit-Learn, Spark MLlib, Caffe and TensorFlow).
It provides trainable classifiers whose *latency profiles* span the
same range as the paper's model containers:

* :class:`~paperkit.mlkit.linear.LinearSVM` — a single matrix-vector product
  per query (the cheapest real model in Figure 3).
* :class:`~paperkit.mlkit.linear.LogisticRegression` — similar cost,
  probabilistic outputs.
* :class:`~paperkit.mlkit.kernel.KernelSVM` — RBF kernel evaluations against
  the support set, orders of magnitude more expensive per query (the most
  expensive container in Figure 3).
* :class:`~paperkit.mlkit.forest.RandomForestClassifier` — tree traversals
  with moderate per-query cost.
* :class:`~paperkit.mlkit.mlp.MLPClassifier` — feed-forward networks whose
  depth and width parameterize the "deep model zoo" of Table 2.

Every estimator follows the familiar ``fit`` / ``predict`` /
``predict_proba`` API and accepts an explicit ``random_state`` for
determinism.
"""
