"""Tests for mlkit metrics and the model zoo registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mlkit import metrics, zoo


class TestMetrics:
    def test_accuracy_and_error(self):
        y_true = np.array([0, 1, 1, 0])
        y_pred = np.array([0, 1, 0, 0])
        assert metrics.accuracy(y_true, y_pred) == pytest.approx(0.75)
        assert metrics.error_rate(y_true, y_pred) == pytest.approx(0.25)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics.accuracy([0, 1], [0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
    def test_accuracy_plus_error_is_one(self, labels):
        y = np.array(labels)
        shifted = (y + 1) % 6
        assert metrics.accuracy(y, y) == 1.0
        assert metrics.accuracy(y, shifted) + metrics.error_rate(y, shifted) == pytest.approx(1.0)


class TestModelZoo:
    def test_table2_zoo_has_five_architectures(self):
        assert len(zoo.TABLE2_ZOO) == 5
        assert {"vgg", "googlenet", "resnet", "caffenet", "inception"} == set(zoo.TABLE2_ZOO)

    def test_build_zoo_model(self):
        model = zoo.build_zoo_model("vgg", random_state=0)
        assert model.hidden_layers == zoo.TABLE2_ZOO["vgg"].hidden_layers

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            zoo.build_zoo_model("alexnet-9000")

    def test_figure11_models(self):
        assert set(zoo.FIGURE11_MODELS) == {"mnist", "cifar", "imagenet"}
        model = zoo.build_figure11_model("mnist", random_state=0)
        assert model.hidden_layers == zoo.FIGURE11_MODELS["mnist"]["hidden_layers"]
        with pytest.raises(KeyError):
            zoo.build_figure11_model("cifar100")
