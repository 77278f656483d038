"""Feed-forward multi-layer perceptron classifier.

The MLP is the stand-in for the deep convolutional networks of Table 2
(VGG, GoogLeNet, ResNet, CaffeNet, Inception) and for the TensorFlow models
of the Figure 11 comparison.  Depth and width are configurable so the model
zoo spans a wide range of inference costs, just like the paper's networks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from paperkit.mlkit.base import (
    BaseEstimator,
    ClassifierMixin,
    as_rng,
    check_Xy,
    check_2d,
    one_hot,
    softmax,
)


class MLPClassifier(BaseEstimator, ClassifierMixin):
    """ReLU MLP trained with mini-batch SGD and momentum.

    Parameters
    ----------
    hidden_layers:
        Sequence of hidden-layer widths, e.g. ``(256, 128)``.
    learning_rate, momentum, epochs, batch_size:
        Standard SGD hyper-parameters.
    weight_scale:
        Standard deviation of the He-style weight initialisation multiplier.
    """

    def __init__(
        self,
        hidden_layers: Sequence[int] = (64,),
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        epochs: int = 20,
        batch_size: int = 64,
        l2: float = 1e-4,
        random_state: Optional[int] = None,
    ) -> None:
        hidden_layers = tuple(int(width) for width in hidden_layers)
        if any(width < 1 for width in hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.hidden_layers = hidden_layers
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.random_state = random_state

    # -- training -----------------------------------------------------------

    def fit(self, X, y) -> "MLPClassifier":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        rng = as_rng(self.random_state)
        n_classes = self.classes_.shape[0]
        # Standardize features internally: SGD on raw high-variance inputs
        # diverges easily, and real deep-learning pipelines always normalise.
        self._input_mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._input_scale = scale
        X = (X - self._input_mean) / self._input_scale
        layer_sizes = [X.shape[1], *self.hidden_layers, n_classes]
        self.n_features_ = X.shape[1]
        self.weights_: List[np.ndarray] = []
        self.biases_: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights_.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

        velocity_w = [np.zeros_like(w) for w in self.weights_]
        velocity_b = [np.zeros_like(b) for b in self.biases_]
        targets = one_hot(encoded, n_classes)
        n_samples = X.shape[0]
        for epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            step = self.learning_rate / (1.0 + 0.05 * epoch)
            for start in range(0, n_samples, self.batch_size):
                idx = order[start : start + self.batch_size]
                grads_w, grads_b = self._backprop(X[idx], targets[idx])
                for layer, (gw, gb) in enumerate(zip(grads_w, grads_b)):
                    velocity_w[layer] = (
                        self.momentum * velocity_w[layer] - step * gw
                    )
                    velocity_b[layer] = (
                        self.momentum * velocity_b[layer] - step * gb
                    )
                    self.weights_[layer] += velocity_w[layer]
                    self.biases_[layer] += velocity_b[layer]
        return self

    def _forward(self, X: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return per-layer activations and the final softmax output."""
        activations = [X]
        hidden = X
        for layer in range(len(self.weights_) - 1):
            hidden = hidden @ self.weights_[layer] + self.biases_[layer]
            np.maximum(hidden, 0.0, out=hidden)
            activations.append(hidden)
        logits = hidden @ self.weights_[-1] + self.biases_[-1]
        return activations, softmax(logits)

    def _backprop(self, X: np.ndarray, targets: np.ndarray):
        activations, probs = self._forward(X)
        batch = X.shape[0]
        delta = (probs - targets) / batch
        grads_w: List[np.ndarray] = [None] * len(self.weights_)
        grads_b: List[np.ndarray] = [None] * len(self.biases_)
        for layer in reversed(range(len(self.weights_))):
            grads_w[layer] = activations[layer].T @ delta + self.l2 * self.weights_[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights_[layer].T
                delta[activations[layer] <= 0.0] = 0.0
        return grads_w, grads_b

    # -- inference ----------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_2d(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self.n_features_}"
            )
        X = (X - self._input_mean) / self._input_scale
        _, probs = self._forward(X)
        return probs

    @property
    def n_parameters_(self) -> int:
        """Total number of trainable parameters (used by the model zoo registry)."""
        self._check_fitted()
        return int(
            sum(w.size for w in self.weights_) + sum(b.size for b in self.biases_)
        )

    @property
    def n_layers_(self) -> int:
        """Number of weight layers (hidden layers + output layer)."""
        self._check_fitted()
        return len(self.weights_)
