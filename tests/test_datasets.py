"""Tests for the synthetic dataset generators and registries (Table 1 / Table 2)."""

import numpy as np
import pytest

from paperkit.datasets.images import load_cifar_like, load_imagenet_like, load_mnist_like
from paperkit.datasets.registry import DATASET_REGISTRY, dataset_table, model_zoo_table
from paperkit.datasets.speech import load_timit_like, utterances_to_fixed_features
from paperkit.datasets.synthetic import make_classification
from paperkit.mlkit.linear import LinearSVM


class TestMakeClassification:
    def test_shapes_and_splits(self):
        ds = make_classification(n_samples=200, n_features=30, n_classes=4, random_state=0)
        assert ds.X_train.shape[1] == 30
        assert ds.X_train.shape[0] + ds.X_test.shape[0] == 200
        assert ds.n_classes == 4
        assert ds.n_features == 30
        assert set(np.unique(ds.y_train)) <= set(range(4))

    def test_deterministic_given_seed(self):
        a = make_classification(n_samples=100, n_features=10, n_classes=3, random_state=5)
        b = make_classification(n_samples=100, n_features=10, n_classes=3, random_state=5)
        np.testing.assert_array_equal(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_different_seeds_differ(self):
        a = make_classification(n_samples=100, n_features=10, n_classes=3, random_state=1)
        b = make_classification(n_samples=100, n_features=10, n_classes=3, random_state=2)
        assert not np.array_equal(a.X_train, b.X_train)

    def test_difficulty_orders_learnability(self):
        easy = make_classification(n_samples=800, n_features=32, n_classes=5, difficulty=0.3, random_state=0)
        hard = make_classification(n_samples=800, n_features=32, n_classes=5, difficulty=3.0, random_state=0)
        easy_acc = LinearSVM(epochs=5, random_state=0).fit(easy.X_train, easy.y_train).score(easy.X_test, easy.y_test)
        hard_acc = LinearSVM(epochs=5, random_state=0).fit(hard.X_train, hard.y_train).score(hard.X_test, hard.y_test)
        assert easy_acc > hard_acc

    def test_label_noise_bounds_accuracy(self):
        noisy = make_classification(
            n_samples=800, n_features=16, n_classes=2, difficulty=0.2,
            label_noise=0.4, random_state=0,
        )
        acc = LinearSVM(epochs=5, random_state=0).fit(noisy.X_train, noisy.y_train).score(noisy.X_test, noisy.y_test)
        assert acc < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            make_classification(n_samples=3, n_features=4, n_classes=2)
        with pytest.raises(ValueError):
            make_classification(n_samples=100, n_features=4, n_classes=1)
        with pytest.raises(ValueError):
            make_classification(n_samples=100, n_features=4, n_classes=2, test_fraction=0.0)
        with pytest.raises(ValueError):
            make_classification(n_samples=100, n_features=4, n_classes=2, label_noise=1.0)

    def test_describe(self):
        ds = make_classification(n_samples=100, n_features=8, n_classes=2, name="demo", random_state=0)
        assert "demo" in ds.describe()


class TestImageLoaders:
    def test_mnist_like_dimensions_match_table1(self):
        ds = load_mnist_like(n_samples=300)
        assert ds.n_features == 28 * 28
        assert ds.n_classes == 10
        assert ds.input_shape == (28, 28)

    def test_cifar_like_dimensions_match_table1(self):
        ds = load_cifar_like(n_samples=300)
        assert ds.n_features == 32 * 32 * 3
        assert ds.n_classes == 10

    def test_imagenet_like_has_many_classes(self):
        ds = load_imagenet_like(n_samples=600, n_classes=50)
        assert ds.n_classes == 50
        assert ds.n_features == 2048

    def test_reduced_feature_variants_for_fast_tests(self):
        ds = load_mnist_like(n_samples=200, n_features=64)
        assert ds.n_features == 64

    def test_difficulty_ordering_mnist_vs_cifar(self):
        mnist = load_mnist_like(n_samples=900, n_features=64, random_state=0)
        cifar = load_cifar_like(n_samples=900, n_features=64, random_state=0)
        mnist_acc = LinearSVM(epochs=5, random_state=0).fit(mnist.X_train, mnist.y_train).score(mnist.X_test, mnist.y_test)
        cifar_acc = LinearSVM(epochs=5, random_state=0).fit(cifar.X_train, cifar.y_train).score(cifar.X_test, cifar.y_test)
        assert mnist_acc > cifar_acc


class TestTimitLike:
    def test_corpus_structure(self):
        corpus = load_timit_like(n_speakers=16, utterances_per_speaker=4, random_state=0)
        assert corpus.n_dialects == 8
        assert len(corpus.train) + len(corpus.test) == 16 * 4
        assert len(corpus.test_speakers()) >= 8

    def test_dialects_cover_all_eight(self):
        corpus = load_timit_like(n_speakers=16, utterances_per_speaker=2, random_state=0)
        dialects = {u.dialect for u in corpus.train} | {u.dialect for u in corpus.test}
        assert dialects == set(range(8))

    def test_utterances_have_mfcc_frames(self):
        corpus = load_timit_like(n_speakers=16, utterances_per_speaker=2, random_state=0)
        utterance = corpus.train[0]
        assert utterance.frames.ndim == 2
        assert utterance.frames.shape[1] == corpus.n_features

    def test_speaker_streams(self):
        corpus = load_timit_like(n_speakers=16, utterances_per_speaker=3, random_state=0)
        speaker = corpus.test_speakers()[0]
        utterances = corpus.utterances_for_speaker(speaker)
        assert len(utterances) == 3
        assert all(u.speaker_id == speaker for u in utterances)

    def test_fixed_features_shape(self):
        corpus = load_timit_like(n_speakers=16, utterances_per_speaker=2, random_state=0)
        X, y = utterances_to_fixed_features(corpus.train)
        assert X.shape[0] == len(corpus.train)
        assert X.shape[1] == corpus.n_features * 4
        assert y.shape[0] == X.shape[0]

    def test_dialect_shift_makes_cross_dialect_harder(self):
        """The property Figure 10 needs: per-dialect structure in the data."""
        corpus = load_timit_like(
            n_speakers=32, utterances_per_speaker=8, dialect_shift=3.0, random_state=0
        )
        from paperkit.mlkit.linear import LogisticRegression

        d0_train = corpus.utterances_for_dialect(0, "train")
        d1_train = corpus.utterances_for_dialect(1, "train")
        d0_test = corpus.utterances_for_dialect(0, "test")
        X0, y0 = utterances_to_fixed_features(d0_train)
        X1, y1 = utterances_to_fixed_features(d1_train)
        X0t, y0t = utterances_to_fixed_features(d0_test)
        own = LogisticRegression(epochs=30, learning_rate=0.1, random_state=0).fit(X0, y0)
        other = LogisticRegression(epochs=30, learning_rate=0.1, random_state=0).fit(X1, y1)
        assert own.score(X0t, y0t) >= other.score(X0t, y0t)

    def test_validation(self):
        with pytest.raises(ValueError):
            load_timit_like(n_speakers=4)


class TestRegistries:
    def test_dataset_table_has_four_rows(self):
        rows = dataset_table()
        assert len(rows) == 4
        assert [row["dataset"] for row in rows] == ["MNIST", "CIFAR", "ImageNet", "Speech (TIMIT)"]
        assert rows[0]["features"] == "28x28"
        assert rows[2]["labels"] == 1000

    def test_registry_keys(self):
        assert set(DATASET_REGISTRY) == {"mnist", "cifar", "imagenet", "speech"}

    def test_model_zoo_table_matches_table2(self):
        rows = model_zoo_table()
        assert len(rows) == 5
        frameworks = {row["framework"] for row in rows}
        assert frameworks == {"Caffe", "TensorFlow"}
