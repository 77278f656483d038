"""Tests for the kernel SVM, decision tree and random forest."""

import numpy as np
import pytest

from paperkit.datasets.synthetic import make_classification
from paperkit.mlkit.forest import RandomForestClassifier
from paperkit.mlkit.kernel import KernelSVM
from paperkit.mlkit.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def nonlinear_dataset():
    """A dataset with a nonlinear decision boundary (XOR-like in 2-D)."""
    rng = np.random.default_rng(0)
    n = 600
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    X = X + rng.normal(0, 0.05, size=X.shape)
    return X[:450], y[:450], X[450:], y[450:]


@pytest.fixture(scope="module")
def blob_dataset():
    return make_classification(
        n_samples=400, n_features=12, n_classes=3, difficulty=0.4, random_state=3
    )


class TestKernelSVM:
    def test_solves_xor_problem(self, nonlinear_dataset):
        X_train, y_train, X_test, y_test = nonlinear_dataset
        model = KernelSVM(random_state=0).fit(X_train, y_train)
        accuracy = model.score(X_test, y_test)
        assert accuracy > 0.9

    def test_support_vector_cap_respected(self, blob_dataset):
        ds = blob_dataset
        model = KernelSVM(max_support_vectors=50, random_state=0).fit(ds.X_train, ds.y_train)
        assert model.n_support_ == 50

    def test_predict_proba_valid(self, blob_dataset):
        ds = blob_dataset
        model = KernelSVM(max_support_vectors=100, random_state=0).fit(ds.X_train, ds.y_train)
        proba = model.predict_proba(ds.X_test[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_feature_mismatch_raises(self, blob_dataset):
        ds = blob_dataset
        model = KernelSVM(max_support_vectors=50, random_state=0).fit(ds.X_train, ds.y_train)
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 99)))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            KernelSVM(regularization=0)
        with pytest.raises(ValueError):
            KernelSVM(max_support_vectors=1)

    def test_inference_cost_scales_with_support_set(self, blob_dataset):
        """The property Figure 3 relies on: more support vectors => slower queries."""
        import time

        ds = blob_dataset
        small = KernelSVM(max_support_vectors=40, random_state=0).fit(ds.X_train, ds.y_train)
        large = KernelSVM(max_support_vectors=300, random_state=0).fit(ds.X_train, ds.y_train)
        X = np.repeat(ds.X_test, 20, axis=0)

        def timed(model):
            start = time.perf_counter()
            model.predict(X)
            return time.perf_counter() - start

        timed(small)  # warm up
        assert timed(large) > timed(small)


class TestDecisionTree:
    def test_solves_xor_problem(self, nonlinear_dataset):
        X_train, y_train, X_test, y_test = nonlinear_dataset
        model = DecisionTreeClassifier(max_depth=6, max_features=2, random_state=0).fit(
            X_train, y_train
        )
        assert model.score(X_test, y_test) > 0.85

    def test_depth_respects_limit(self, blob_dataset):
        ds = blob_dataset
        model = DecisionTreeClassifier(max_depth=3, random_state=0).fit(ds.X_train, ds.y_train)
        assert model.depth() <= 3

    def test_pure_leaf_short_circuits(self):
        X = np.array([[0.0], [0.1], [0.2], [0.9], [1.0], [1.1]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = DecisionTreeClassifier(max_depth=5, max_features=1, random_state=0).fit(X, y)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_predict_proba_valid(self, blob_dataset):
        ds = blob_dataset
        model = DecisionTreeClassifier(random_state=0).fit(ds.X_train, ds.y_train)
        proba = model.predict_proba(ds.X_test)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)


class TestRandomForest:
    def test_beats_single_shallow_tree(self, nonlinear_dataset):
        X_train, y_train, X_test, y_test = nonlinear_dataset
        tree = DecisionTreeClassifier(max_depth=2, max_features=1, random_state=0).fit(
            X_train, y_train
        )
        forest = RandomForestClassifier(
            n_estimators=15, max_depth=6, max_features=2, random_state=0
        ).fit(X_train, y_train)
        assert forest.score(X_test, y_test) >= tree.score(X_test, y_test)

    def test_number_of_estimators(self, blob_dataset):
        ds = blob_dataset
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(
            ds.X_train, ds.y_train
        )
        assert len(forest.estimators_) == 5

    def test_probabilities_are_averages_in_valid_range(self, blob_dataset):
        ds = blob_dataset
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(
            ds.X_train, ds.y_train
        )
        proba = forest.predict_proba(ds.X_test)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self, blob_dataset):
        ds = blob_dataset
        f1 = RandomForestClassifier(n_estimators=3, random_state=5).fit(ds.X_train, ds.y_train)
        f2 = RandomForestClassifier(n_estimators=3, random_state=5).fit(ds.X_train, ds.y_train)
        np.testing.assert_array_equal(f1.predict(ds.X_test), f2.predict(ds.X_test))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)
