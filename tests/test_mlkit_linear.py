"""Tests for linear models (LinearSVM, LogisticRegression)."""

import numpy as np
import pytest

from paperkit.datasets.synthetic import make_classification
from paperkit.mlkit.linear import LinearSVM, LogisticRegression


@pytest.fixture(scope="module")
def easy_dataset():
    return make_classification(
        n_samples=500, n_features=16, n_classes=3, difficulty=0.3, random_state=0
    )


@pytest.mark.parametrize("model_cls", [LinearSVM, LogisticRegression])
class TestLinearModels:
    def test_learns_separable_data(self, model_cls, easy_dataset):
        ds = easy_dataset
        model = model_cls(epochs=8, random_state=0).fit(ds.X_train, ds.y_train)
        assert model.score(ds.X_test, ds.y_test) > 0.85

    def test_predict_shape_and_label_domain(self, model_cls, easy_dataset):
        ds = easy_dataset
        model = model_cls(epochs=3, random_state=0).fit(ds.X_train, ds.y_train)
        predictions = model.predict(ds.X_test)
        assert predictions.shape == (ds.X_test.shape[0],)
        assert set(np.unique(predictions)) <= set(np.unique(ds.y_train))

    def test_predict_proba_rows_sum_to_one(self, model_cls, easy_dataset):
        ds = easy_dataset
        model = model_cls(epochs=3, random_state=0).fit(ds.X_train, ds.y_train)
        proba = model.predict_proba(ds.X_test[:20])
        assert proba.shape == (20, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)

    def test_deterministic_given_seed(self, model_cls, easy_dataset):
        ds = easy_dataset
        m1 = model_cls(epochs=3, random_state=7).fit(ds.X_train, ds.y_train)
        m2 = model_cls(epochs=3, random_state=7).fit(ds.X_train, ds.y_train)
        np.testing.assert_array_equal(m1.predict(ds.X_test), m2.predict(ds.X_test))

    def test_single_row_prediction(self, model_cls, easy_dataset):
        ds = easy_dataset
        model = model_cls(epochs=3, random_state=0).fit(ds.X_train, ds.y_train)
        single = model.predict(ds.X_test[0])
        assert single.shape == (1,)

    def test_feature_mismatch_raises(self, model_cls, easy_dataset):
        ds = easy_dataset
        model = model_cls(epochs=2, random_state=0).fit(ds.X_train, ds.y_train)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 99)))

    def test_unfitted_predict_raises(self, model_cls):
        with pytest.raises(RuntimeError):
            model_cls().predict(np.zeros((1, 4)))

    def test_rejects_single_class(self, model_cls):
        X = np.random.default_rng(0).normal(size=(20, 4))
        with pytest.raises(ValueError):
            model_cls().fit(X, np.zeros(20, dtype=int))

    def test_rejects_nan_inputs(self, model_cls):
        X = np.full((10, 3), np.nan)
        with pytest.raises(ValueError):
            model_cls().fit(X, np.arange(10) % 2)

    def test_hyperparameter_validation(self, model_cls):
        with pytest.raises(ValueError):
            model_cls(learning_rate=0)
        with pytest.raises(ValueError):
            model_cls(epochs=0)
        with pytest.raises(ValueError):
            model_cls(batch_size=0)


class TestLinearSVMSpecifics:
    def test_string_labels_round_trip(self):
        ds = make_classification(
            n_samples=300, n_features=10, n_classes=2, difficulty=0.3, random_state=1
        )
        labels = np.where(ds.y_train == 0, "cat", "dog")
        model = LinearSVM(epochs=6, random_state=0).fit(ds.X_train, labels)
        predictions = model.predict(ds.X_test)
        assert set(predictions) <= {"cat", "dog"}

    def test_decision_function_shape(self):
        ds = make_classification(
            n_samples=200, n_features=8, n_classes=4, difficulty=0.3, random_state=2
        )
        model = LinearSVM(epochs=3, random_state=0).fit(ds.X_train, ds.y_train)
        scores = model.decision_function(ds.X_test[:5])
        assert scores.shape == (5, 4)
