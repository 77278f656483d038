"""Tests for kNN, Gaussian naive Bayes and the MLP."""

import numpy as np
import pytest

from paperkit.datasets.synthetic import make_classification
from paperkit.mlkit.mlp import MLPClassifier
from paperkit.mlkit.naive_bayes import GaussianNB
from paperkit.mlkit.neighbors import KNeighborsClassifier


@pytest.fixture(scope="module")
def blob_dataset():
    return make_classification(
        n_samples=500, n_features=12, n_classes=3, difficulty=0.4, random_state=11
    )


class TestKNN:
    def test_learns_blobs(self, blob_dataset):
        ds = blob_dataset
        model = KNeighborsClassifier(n_neighbors=5).fit(ds.X_train, ds.y_train)
        assert model.score(ds.X_test, ds.y_test) > 0.8

    def test_one_neighbor_memorizes_training_data(self, blob_dataset):
        ds = blob_dataset
        model = KNeighborsClassifier(n_neighbors=1).fit(ds.X_train, ds.y_train)
        assert model.score(ds.X_train[:50], ds.y_train[:50]) == 1.0

    def test_reference_point_cap(self, blob_dataset):
        ds = blob_dataset
        model = KNeighborsClassifier(
            n_neighbors=3, max_reference_points=50, random_state=0
        ).fit(ds.X_train, ds.y_train)
        assert model._X.shape[0] == 50

    def test_proba_valid(self, blob_dataset):
        ds = blob_dataset
        model = KNeighborsClassifier(n_neighbors=5).fit(ds.X_train, ds.y_train)
        proba = model.predict_proba(ds.X_test[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)


class TestGaussianNB:
    def test_learns_blobs(self, blob_dataset):
        ds = blob_dataset
        model = GaussianNB().fit(ds.X_train, ds.y_train)
        assert model.score(ds.X_test, ds.y_test) > 0.8

    def test_probabilities_valid(self, blob_dataset):
        ds = blob_dataset
        model = GaussianNB().fit(ds.X_train, ds.y_train)
        proba = model.predict_proba(ds.X_test)
        assert np.all(proba >= 0)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_handles_constant_features(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        X[:, 2] = 1.0  # constant feature: zero variance
        y = (X[:, 0] > 0).astype(int)
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNB(var_smoothing=0)


class TestMLP:
    def test_learns_blobs(self, blob_dataset):
        ds = blob_dataset
        model = MLPClassifier(hidden_layers=(32,), epochs=20, random_state=0).fit(
            ds.X_train, ds.y_train
        )
        assert model.score(ds.X_test, ds.y_test) > 0.85

    def test_solves_xor(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(600, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        model = MLPClassifier(hidden_layers=(16, 16), epochs=60, learning_rate=0.1, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_deeper_models_have_more_parameters(self, blob_dataset):
        ds = blob_dataset
        shallow = MLPClassifier(hidden_layers=(16,), epochs=2, random_state=0).fit(
            ds.X_train, ds.y_train
        )
        deep = MLPClassifier(hidden_layers=(64, 32, 16), epochs=2, random_state=0).fit(
            ds.X_train, ds.y_train
        )
        assert deep.n_parameters_ > shallow.n_parameters_
        assert deep.n_layers_ == 4
        assert shallow.n_layers_ == 2

    def test_probabilities_valid(self, blob_dataset):
        ds = blob_dataset
        model = MLPClassifier(hidden_layers=(16,), epochs=5, random_state=0).fit(
            ds.X_train, ds.y_train
        )
        proba = model.predict_proba(ds.X_test[:20])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_deterministic_given_seed(self, blob_dataset):
        ds = blob_dataset
        m1 = MLPClassifier(hidden_layers=(16,), epochs=3, random_state=9).fit(ds.X_train, ds.y_train)
        m2 = MLPClassifier(hidden_layers=(16,), epochs=3, random_state=9).fit(ds.X_train, ds.y_train)
        np.testing.assert_allclose(m1.predict_proba(ds.X_test), m2.predict_proba(ds.X_test))

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layers=(0,))
        with pytest.raises(ValueError):
            MLPClassifier(momentum=1.0)
        with pytest.raises(ValueError):
            MLPClassifier(learning_rate=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.zeros((1, 3)))
