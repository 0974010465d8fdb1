"""Minimal differentiable MLP engine: affine/rectifier layers, SGD training
of several seeded runs, over one dataset or a stack of them, as one stacked
model, batched input gradients with switchable guided-backprop masking, and
a closed-form least-squares model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

STANDARD = "standard"
GUIDED = "guided"

# The dtype SGD trains the stacked model in; models come back in float64.
TRAIN_DTYPE = np.float32


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
    def output_dim(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, Affine):
                return layer.weight.shape[1]
        raise ValueError("model has no affine layer")


@dataclass
class ArrayDataset:
    """Flat feature matrices plus integer labels for train and test splits.
    An image dataset carries the (H, W, C) shape its rows flatten; ranking
    and replacement then work per pixel and per channel."""

    train_x: np.ndarray  # (n, d)
    train_y: np.ndarray  # (n,) int
    test_x: np.ndarray
    test_y: np.ndarray
    image_shape: tuple[int, int, int] | None = None  # None: flat data

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    @property
    def n_classes(self) -> int:
        return _n_classes(self.train_y, self.test_y)


def _n_classes(train_y: np.ndarray, test_y: np.ndarray) -> int:
    return int(max(train_y.max(), test_y.max())) + 1


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    steps: int = 500
    batch_size: int = 32
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


def _reduce_classes(ufunc, a):
    """`ufunc` reduced over the last (class) axis of `a`, one class slice at
    a time: for a few classes numpy's axis reductions cost more than these
    few elementwise calls."""
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def _loss_and_output_grad(logits, onehot, loss):
    """Per-run loss values (R,) and output gradients of (R, b, c) logits,
    against (R, b, c) one-hot labels of the logits' dtype.

    Each run's gradient is scaled by its own batch (and, for MSE, class)
    count, so a run's values do not depend on the stack it trains in. The
    label's log-probability is picked by the one-hot multiply, so a run with
    any non-finite logit gets a non-finite loss under either loss.
    """
    r, b, c = logits.shape
    if loss == "softmax_cross_entropy":
        shifted = logits - _reduce_classes(np.maximum, logits)[:, :, None]
        grad = np.exp(shifted)
        z = _reduce_classes(np.add, grad)
        shifted *= onehot
        value = (np.log(z) - _reduce_classes(np.add, shifted)).sum(axis=1) / b
        grad /= z[:, :, None]
        grad -= onehot
        grad /= b
        return value, grad
    if loss == "mean_squared_error":
        diff = logits - onehot
        return ((diff ** 2).reshape(r, -1).sum(axis=1) / (b * c),
                2.0 * diff / (b * c))
    raise ValueError(f"unknown loss {loss!r}")


def accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy; single-output models threshold at 0.5."""
    out = forward(model, x)
    if out.shape[1] == 1:
        pred = (out[:, 0] > 0.5).astype(np.int64)
    else:
        pred = out.argmax(axis=1)
    return float((pred == y).mean())


@dataclass
class DatasetStack:
    """Datasets of one shape that share their labels and differ only in
    their features. Dataset c's feature splits are built on demand by
    `train_x(c)` and `test_x(c)`, so a trainer keeps alive only the splits
    it is working on."""

    size: int
    n_features: int
    train_x: Callable[[int], np.ndarray]  # c -> (n, n_features)
    train_y: np.ndarray  # (n,) int
    test_x: Callable[[int], np.ndarray]
    test_y: np.ndarray

    @property
    def n_classes(self) -> int:
        return _n_classes(self.train_y, self.test_y)

    @classmethod
    def of(cls, datasets: Sequence[ArrayDataset]) -> "DatasetStack":
        """Stack of built datasets; the labels are those of the first."""
        first = datasets[0]
        return cls(len(datasets), first.n_features,
                   lambda c: datasets[c].train_x, first.train_y,
                   lambda c: datasets[c].test_x, first.test_y)

    def dataset(self, c: int) -> ArrayDataset:
        return ArrayDataset(self.train_x(c), self.train_y, self.test_x(c),
                            self.test_y)


TrainResult = tuple[Model, float] | TrainingDivergedError


def train(layer_sizes: Sequence[int], dataset: ArrayDataset | DatasetStack,
          config: TrainConfig, seeds: Sequence) -> list:
    """Minibatch SGD of one MLP per seed, stacked into one model.

    Takes one ArrayDataset with a flat seed list and returns one result per
    seed: (model, test accuracy), or the TrainingDivergedError of a run whose
    loss turned non-finite. A DatasetStack takes one seed list per dataset
    and returns one such result list per dataset.
    """
    if isinstance(dataset, ArrayDataset):
        return _train_stack(layer_sizes, DatasetStack.of([dataset]), config,
                            [seeds])[0]
    return _train_stack(layer_sizes, dataset, config, seeds)


def _train_stack(layer_sizes, stack: DatasetStack, config: TrainConfig,
                 seeds: Sequence[Sequence[int]]) -> list[list[TrainResult]]:
    """Every run of every dataset of the stack in one SGD loop.

    The C train splits are copied into one (C * n, d) TRAIN_DTYPE array,
    next to a (C * n, classes) one-hot table of their labels. Weights are
    stacked as (R, d_in, d_out) and biases as (R, 1, d_out) over all R runs,
    in TRAIN_DTYPE, and each step is one batched forward and backward pass
    over (R, batch, d) rows, gathered from that array with one fancy index.
    Run r initializes from, then draws all its batch indices from, its own
    `default_rng(seed_r)` stream. numpy runs one product per stacked slice,
    so every run replays training its seed alone on its dataset bit for bit.
    A run whose loss turns non-finite leaves the stack at that step, before
    its update; the others go on. Each trained run's layers come back as
    float64 arrays of their own, so scoring and ranking stay in float64.
    Dataset c's test split is built only to score its runs.
    """
    if len(seeds) != stack.size:
        raise ValueError(f"{len(seeds)} seed lists for {stack.size} datasets")
    n = len(stack.train_y)
    if n == 0:
        raise ValueError("empty training set")
    if config.batch_size > n:
        raise ValueError("batch_size exceeds training-set size")
    if layer_sizes[-1] < stack.n_classes:
        raise ValueError(f"output dim {layer_sizes[-1]} < {stack.n_classes} "
                         f"classes")

    models, rows = [], []
    for c, cell_seeds in enumerate(seeds):
        for seed in cell_seeds:
            rng = np.random.default_rng(np.uint64(seed))
            models.append(init_mlp(layer_sizes, rng))
            rows.append(c * n + rng.integers(
                0, n, size=(config.steps, config.batch_size)))
    if not models:
        return [[] for _ in seeds]
    # Row c * n + i of train_x and onehot is row i of dataset c.
    train_x = np.empty((stack.size * n, stack.n_features), TRAIN_DTYPE)
    for c in range(stack.size):
        train_x[c * n:(c + 1) * n] = stack.train_x(c)
    onehot = np.tile(np.eye(layer_sizes[-1], dtype=TRAIN_DTYPE)[stack.train_y],
                     (stack.size, 1))
    rows = np.stack(rows, axis=1)  # (steps, R, batch)
    params = [(np.stack([m.layers[i].weight for m in models],
                        dtype=TRAIN_DTYPE),
               np.stack([m.layers[i].bias[None] for m in models],
                        dtype=TRAIN_DTYPE))
              for i in range(0, len(models[0].layers), 2)]
    results: list = [None] * len(models)
    live = np.arange(len(models))
    lr = TRAIN_DTYPE(config.learning_rate)
    ones = np.ones((1, config.batch_size), TRAIN_DTYPE)
    for step in range(config.steps):
        idx = rows[step]
        # xs[i] is the input of affine i; its positive entries are the
        # units the rectifier before it passed.
        xs = [train_x[idx]]
        for w, b in params[:-1]:
            xs.append(np.maximum(xs[-1] @ w + b, 0.0))
        w, b = params[-1]
        loss, g = _loss_and_output_grad(xs[-1] @ w + b, onehot[idx],
                                        config.loss)
        finite = np.isfinite(loss)
        if not finite.all():
            for run in live[~finite]:
                results[run] = TrainingDivergedError(step)
            live, rows, g = live[finite], rows[:, finite], g[finite]
            xs = [x[finite] for x in xs]
            params = [(w[finite], b[finite]) for w, b in params]
            if not len(live):
                break
        for i in reversed(range(len(params))):
            w, b = params[i]
            grad_w = xs[i].transpose(0, 2, 1) @ g
            grad_b = ones @ g
            if i > 0:
                g = (g @ w.transpose(0, 2, 1)) * (xs[i] > 0.0)
            w -= lr * grad_w
            b -= lr * grad_b
    del train_x, onehot  # before any test split is built
    for k, run in enumerate(live):
        for layer, (w, b) in zip(models[run].layers[::2], params):
            layer.weight = w[k].astype(np.float64)
            layer.bias = b[k, 0].astype(np.float64)
    bounds = np.cumsum([0, *map(len, seeds)])
    out = []
    for c in range(stack.size):
        runs = range(bounds[c], bounds[c + 1])
        trained = [run for run in runs if results[run] is None]
        if trained:
            test_x = stack.test_x(c)
            for run in trained:
                results[run] = (models[run], accuracy(models[run], test_x,
                                                      stack.test_y))
        out.append(results[runs.start:runs.stop])
    return out


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


TrainerFn = Callable[[ArrayDataset | DatasetStack, Sequence], list]


def mlp_trainer(hidden: Sequence[int], config: TrainConfig) -> TrainerFn:
    """Trainer closure for the retraining pipeline: one stacked SGD run per
    call, with `train`'s dataset, seed and result shapes."""

    def run(dataset, seeds):
        sizes = [dataset.n_features, *hidden, dataset.n_classes]
        return train(sizes, dataset, config, seeds)

    return run


def least_squares_trainer(ridge: float = 1e-8,
                          fit_bias: bool = True) -> TrainerFn:
    """Deterministic closed-form trainer. The seeds are unused, so it fits
    once per dataset and returns that (model, accuracy) for every seed of
    the dataset. A DatasetStack is fitted one dataset at a time."""

    def fit(dataset: ArrayDataset, seeds) -> list[TrainResult]:
        model = fit_least_squares(dataset, ridge=ridge, fit_bias=fit_bias)
        result = (model, accuracy(model, dataset.test_x, dataset.test_y))
        return [result for _ in seeds]

    def run(dataset, seeds):
        if isinstance(dataset, ArrayDataset):
            return fit(dataset, seeds)
        return [fit(dataset.dataset(c), cell_seeds)
                for c, cell_seeds in enumerate(seeds)]

    return run
