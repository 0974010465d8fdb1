"""Minimal differentiable MLP engine: affine/rectifier layers, SGD training,
batched input gradients with switchable guided-backprop masking, and a
closed-form least-squares model."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

STANDARD = "standard"
GUIDED = "guided"


class DimensionError(ValueError):
    """Shape mismatch between a layer and its input."""

    def __init__(self, layer_index: int, message: str):
        self.layer_index = layer_index
        super().__init__(f"layer {layer_index}: {message}")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during SGD."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite loss at step {step}")


class SingularMatrixError(np.linalg.LinAlgError):
    pass


@dataclass
class Affine:
    weight: np.ndarray  # (d_in, d_out)
    bias: np.ndarray  # (d_out,)


class Rectifier:
    def __repr__(self):
        return "Rectifier()"


@dataclass
class Model:
    layers: list

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if isinstance(layer, Affine):
                return layer.weight.shape[0]
        raise ValueError("model has no affine layer")

    @property
    def output_dim(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, Affine):
                return layer.weight.shape[1]
        raise ValueError("model has no affine layer")


@dataclass
class ArrayDataset:
    """Flat feature matrices plus integer labels for train and test splits."""

    train_x: np.ndarray  # (n, d)
    train_y: np.ndarray  # (n,) int
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    @property
    def n_classes(self) -> int:
        return int(max(self.train_y.max(), self.test_y.max())) + 1


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    steps: int = 500
    batch_size: int = 32
    seed: int = 0
    loss: str = "softmax_cross_entropy"  # or "mean_squared_error"


def _forward_rows(model: Model, x: np.ndarray, pre_acts=None) -> np.ndarray:
    """(n, d) rows through every layer; rectifier inputs go to `pre_acts`."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Affine):
            if h.shape[1] != layer.weight.shape[0]:
                raise DimensionError(
                    i, f"input has {h.shape[1]} features, weight expects "
                    f"{layer.weight.shape[0]}")
            h = h @ layer.weight + layer.bias
        else:
            if pre_acts is not None:
                pre_acts.append(h)
            h = np.maximum(h, 0.0)
    return h


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Evaluate the model on a single sample (d,) or a batch (n, d)."""
    out = _forward_rows(model, x)
    return out[0] if np.ndim(x) == 1 else out


def input_gradient(model: Model, x: np.ndarray, targets,
                   mode: str = STANDARD) -> np.ndarray:
    """Gradient of output unit targets[i] with respect to input row i.

    Takes (n, d) rows with (n,) targets, or a single (d,) sample with an int
    target. In guided mode every rectifier backward pass applies two masks:
    the usual forward-activation mask and an additional mask zeroing negative
    incoming gradient entries.
    """
    pre_acts = []
    out = _forward_rows(model, x, pre_acts)
    targets = np.atleast_1d(targets)
    if targets.shape != (out.shape[0],):
        raise ValueError(f"{targets.shape} targets for {out.shape[0]} rows")
    if np.any((targets < 0) | (targets >= out.shape[1])):
        raise IndexError(f"target unit out of range for output dimension "
                         f"{out.shape[1]}")

    g = np.zeros_like(out)
    g[np.arange(len(g)), targets] = 1.0
    for layer in reversed(model.layers):
        if isinstance(layer, Affine):
            g = g @ layer.weight.T
        else:
            g = g * (pre_acts.pop() > 0.0)
            if mode == GUIDED:
                g = g * (g > 0.0)
    return g[0] if np.ndim(x) == 1 else g


def init_mlp(layer_sizes: Sequence[int], rng: np.random.Generator) -> Model:
    """MLP with rectifiers between affines; uniform +-1/sqrt(fan_in) init."""
    layers: list = []
    for i, (d_in, d_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        bound = 1.0 / np.sqrt(d_in)
        layers.append(Affine(
            weight=rng.uniform(-bound, bound, size=(d_in, d_out)),
            bias=rng.uniform(-bound, bound, size=d_out),
        ))
        if i < len(layer_sizes) - 2:
            layers.append(Rectifier())
    return Model(layers)


def _loss_and_output_grad(logits, labels, n_classes, loss):
    n = logits.shape[0]
    if loss == "softmax_cross_entropy":
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        value = -log_probs[np.arange(n), labels].mean()
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        return value, grad / n
    if loss == "mean_squared_error":
        onehot = np.eye(n_classes)[labels]
        diff = logits - onehot
        return (diff ** 2).mean(), 2.0 * diff / diff.size
    raise ValueError(f"unknown loss {loss!r}")


def _backprop(model: Model, x: np.ndarray, out_grad: np.ndarray):
    """Parameter gradients for a batch; forward activations recomputed."""
    inputs = []
    h = x
    for layer in model.layers:
        inputs.append(h)
        if isinstance(layer, Affine):
            h = h @ layer.weight + layer.bias
        else:
            h = np.maximum(h, 0.0)
    grads = [None] * len(model.layers)
    g = out_grad
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        if isinstance(layer, Affine):
            grads[i] = (inputs[i].T @ g, g.sum(axis=0))
            g = g @ layer.weight.T
        else:
            g = g * (inputs[i] > 0.0)
    return grads


def accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy; single-output models threshold at 0.5."""
    out = forward(model, x)
    if out.shape[1] == 1:
        pred = (out[:, 0] > 0.5).astype(np.int64)
    else:
        pred = out.argmax(axis=1)
    return float((pred == y).mean())


def train(layer_sizes: Sequence[int], dataset: ArrayDataset,
          config: TrainConfig) -> tuple[Model, float]:
    """Minibatch SGD from a seeded random initialization.

    Deterministic: identical (seed, config, dataset) replays bit-identically.
    """
    if dataset.train_x.shape[0] == 0:
        raise ValueError("empty training set")
    if config.batch_size > dataset.train_x.shape[0]:
        raise ValueError("batch_size exceeds training-set size")
    n_classes = dataset.n_classes
    if layer_sizes[-1] < n_classes:
        raise ValueError(f"output dim {layer_sizes[-1]} < {n_classes} classes")

    rng = np.random.default_rng(np.uint64(config.seed))
    model = init_mlp(layer_sizes, rng)
    n = dataset.train_x.shape[0]
    for step in range(config.steps):
        idx = rng.integers(0, n, size=config.batch_size)
        xb, yb = dataset.train_x[idx], dataset.train_y[idx]
        logits = forward(model, xb)
        loss, out_grad = _loss_and_output_grad(logits, yb, layer_sizes[-1],
                                               config.loss)
        if not np.isfinite(loss):
            raise TrainingDivergedError(step)
        for layer, grad in zip(model.layers, _backprop(model, xb, out_grad)):
            if grad is not None:
                layer.weight -= config.learning_rate * grad[0]
                layer.bias -= config.learning_rate * grad[1]
    return model, accuracy(model, dataset.test_x, dataset.test_y)


def fit_least_squares(dataset: ArrayDataset, ridge: float = 0.0,
                      fit_bias: bool = False) -> Model:
    """Closed-form ridge-stabilized least squares as a single-affine model.

    Binary labels are regressed directly; predictions threshold at 0.5.
    """
    x = dataset.train_x
    y = dataset.train_y.astype(np.float64)
    if fit_bias:
        x = np.hstack([x, np.ones((x.shape[0], 1))])
    d = x.shape[1]
    gram = x.T @ x + ridge * np.eye(d)
    if ridge == 0.0 and np.linalg.matrix_rank(gram) < d:
        raise SingularMatrixError(
            "singular normal equations; use ridge > 0 or a full-rank design")
    w = np.linalg.solve(gram, x.T @ y)
    if fit_bias:
        weight, bias = w[:-1], w[-1:]
    else:
        weight, bias = w, np.zeros(1)
    return Model([Affine(weight=weight.reshape(-1, 1), bias=bias)])


TrainerFn = Callable[[ArrayDataset, int], tuple[Model, float]]


def mlp_trainer(hidden: Sequence[int], config: TrainConfig) -> TrainerFn:
    """Trainer closure for the retraining pipeline; seed overrides config."""

    def run(dataset: ArrayDataset, seed: int) -> tuple[Model, float]:
        sizes = [dataset.n_features, *hidden, dataset.n_classes]
        cfg = dataclasses.replace(config, seed=seed)
        return train(sizes, dataset, cfg)

    return run


def least_squares_trainer(ridge: float = 1e-8,
                          fit_bias: bool = True) -> TrainerFn:
    """Deterministic closed-form trainer; the seed argument is unused."""

    def run(dataset: ArrayDataset, seed: int) -> tuple[Model, float]:
        model = fit_least_squares(dataset, ridge=ridge, fit_bias=fit_bias)
        return model, accuracy(model, dataset.test_x, dataset.test_y)

    return run
