"""Minimal differentiable MLP engine: a model is its affine layers, with a
rectifier between each two, evaluated on (n, d) rows; SGD training of
several seeded runs over a stack of datasets as one stacked model, batched
input gradients with switchable guided-backprop masking, and a closed-form
least-squares model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

STANDARD = "standard"
GUIDED = "guided"

# The dtype SGD trains the stacked model in and trained models come back in;
# image datasets hold their features in it.
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


@dataclass
class Model:
    """An MLP: its affine layers, with a rectifier between each two."""

    layers: list[Affine]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]


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


LOSSES = ("softmax_cross_entropy", "mean_squared_error")


@dataclass
class TrainConfig:
    """The `[train]` section of a config: a trainer and its settings."""

    model: str = "mlp"  # mlp | least_squares
    hidden: list[int] = field(default_factory=lambda: [32])
    learning_rate: float = 0.05
    steps: int = 500
    batch_size: int = 32
    loss: str = "softmax_cross_entropy"  # one of LOSSES
    ridge: float = 1e-8


def forward(model: Model, x: np.ndarray, pre_acts=None) -> np.ndarray:
    """Evaluate the model on (n, d) rows; rectifier inputs go to `pre_acts`.
    Computes in the dtype of the rows and the first weight together, so a
    float32 model scores float32 rows in float32."""
    h = np.asarray(x)
    h = h.astype(np.result_type(h, model.layers[0].weight), copy=False)
    if h.ndim != 2:
        raise ValueError(f"input of shape {h.shape}; expected (n, d) rows")
    for i, layer in enumerate(model.layers):
        if i > 0:  # the rectifier between affines i - 1 and i
            if pre_acts is not None:
                pre_acts.append(h)
            h = np.maximum(h, 0.0)
        if h.shape[1] != layer.weight.shape[0]:
            raise DimensionError(
                i, f"input has {h.shape[1]} features, weight expects "
                f"{layer.weight.shape[0]}")
        h = h @ layer.weight + layer.bias
    return h


def input_gradient(model: Model, x: np.ndarray, targets,
                   mode: str = STANDARD) -> np.ndarray:
    """Gradient of output unit targets[i] with respect to input row i, for
    (n, d) rows and (n,) targets.

    In guided mode every rectifier backward pass applies two masks: the
    usual forward-activation mask and an additional mask zeroing negative
    incoming gradient entries.
    """
    pre_acts = []
    out = forward(model, x, pre_acts)
    targets = np.asarray(targets)
    if targets.shape != (out.shape[0],):
        raise ValueError(f"{targets.shape} targets for {out.shape[0]} rows")
    if np.any((targets < 0) | (targets >= out.shape[1])):
        raise IndexError(f"target unit out of range for output dimension "
                         f"{out.shape[1]}")

    g = np.zeros_like(out)
    g[np.arange(len(g)), targets] = 1.0
    for layer in reversed(model.layers):
        g = g @ layer.weight.T
        if pre_acts:  # the rectifier before this affine
            g = g * (pre_acts.pop() > 0.0)
            if mode == GUIDED:
                g = g * (g > 0.0)
    return g


def init_mlp(layer_sizes: Sequence[int], rng: np.random.Generator) -> Model:
    """MLP of one affine per pair of adjacent layer sizes; uniform
    +-1/sqrt(fan_in) init."""
    layers = []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(d_in)
        layers.append(Affine(
            weight=rng.uniform(-bound, bound, size=(d_in, d_out)),
            bias=rng.uniform(-bound, bound, size=d_out),
        ))
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
        return int(max(self.train_y.max(), self.test_y.max())) + 1

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


def train(layer_sizes: Sequence[int], stack: DatasetStack, config: TrainConfig,
          seeds: Sequence[Sequence[int]]) -> list[list[TrainResult]]:
    """Minibatch SGD of one MLP per seed, every run of every dataset of the
    stack in one SGD loop. Takes one seed list per dataset and returns one
    result list per dataset: per seed, (model, test accuracy), or the
    TrainingDivergedError of a run whose loss turned non-finite.

    The C train splits are copied into one (C * n, d + 1) TRAIN_DTYPE array
    whose last column is ones, next to a (C * n, classes) one-hot table of
    their labels. Weights are stacked as (R, d_in, d_out) and biases as
    (R, 1, d_out) over all R runs, in TRAIN_DTYPE, except that the first
    affine's bias is the last row of its (R, d + 1, h) weight, so the ones
    column adds it in the product and its gradient comes with the weight's.
    Each step is one batched forward and backward pass over (R, batch, d + 1)
    rows, gathered from that array, and their one-hot rows from the table,
    with one `take` each. The learning rate scales the output gradient once,
    so every product yields its update as it is. Run r initializes from,
    then draws all its batch indices from, its own `default_rng(seed_r)`
    stream. numpy runs one product per stacked slice, so every run replays
    training its seed alone on its dataset bit for bit.
    A run whose loss turns non-finite leaves the stack at that step, before
    its update; the others go on. Each trained run's layers come back as
    TRAIN_DTYPE arrays of their own, so a float32 split is scored and ranked
    in float32. Dataset c's test split is built only to score its runs.
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

    models = []
    # Run r's batch rows at each step, filled run by run so that the table
    # is held once; after a run leaves the stack, the live runs' columns
    # are picked from it step by step instead of copying it.
    rows = np.empty((config.steps, sum(map(len, seeds)), config.batch_size),
                    np.int64)
    for c, cell_seeds in enumerate(seeds):
        for seed in cell_seeds:
            rng = np.random.default_rng(np.uint64(seed))
            models.append(init_mlp(layer_sizes, rng))
            np.add(rng.integers(0, n, size=(config.steps, config.batch_size)),
                   c * n, out=rows[:, len(models) - 1])
    if not models:
        return [[] for _ in seeds]
    # Row c * n + i of train_x and onehot is row i of dataset c.
    d = stack.n_features
    train_x = np.empty((stack.size * n, d + 1), TRAIN_DTYPE)
    for c in range(stack.size):
        train_x[c * n:(c + 1) * n, :d] = stack.train_x(c)
    train_x[:, d] = 1.0
    onehot = np.tile(np.eye(layer_sizes[-1], dtype=TRAIN_DTYPE)[stack.train_y],
                     (stack.size, 1))
    first, *rest = zip(*(m.layers for m in models))
    weights = [np.stack([np.vstack([a.weight, a.bias]) for a in first],
                        dtype=TRAIN_DTYPE)]
    weights += [np.stack([a.weight for a in affines], dtype=TRAIN_DTYPE)
                for affines in rest]
    # biases[i - 1] is the bias of affine i > 0.
    biases = [np.stack([a.bias[None] for a in affines], dtype=TRAIN_DTYPE)
              for affines in rest]
    results: list = [None] * len(models)
    live = np.arange(len(models))
    columns = slice(None)  # the columns of `rows` of the live runs
    lr = TRAIN_DTYPE(config.learning_rate)
    ones = np.ones((1, config.batch_size), TRAIN_DTYPE)
    for step in range(config.steps):
        idx = rows[step, columns]
        # xs[i] is the input of affine i; its positive entries are the
        # units the rectifier before it passed.
        xs = [train_x.take(idx, axis=0)]
        h = xs[0] @ weights[0]
        for w, b in zip(weights[1:], biases):
            xs.append(np.maximum(h, 0.0, out=h))
            h = xs[-1] @ w
            h += b
        loss, g = _loss_and_output_grad(h, onehot.take(idx, axis=0),
                                        config.loss)
        finite = np.isfinite(loss)
        if not finite.all():
            for run in live[~finite]:
                results[run] = TrainingDivergedError(step)
            live, g = live[finite], g[finite]
            columns = live
            xs = [x[finite] for x in xs]
            weights = [w[finite] for w in weights]
            biases = [b[finite] for b in biases]
            if not len(live):
                break
        g *= lr
        for i in reversed(range(len(weights))):
            grad_w = xs[i].transpose(0, 2, 1) @ g
            if i > 0:
                biases[i - 1] -= ones @ g
                g = g @ weights[i].transpose(0, 2, 1)
                g *= xs[i] > 0.0
            weights[i] -= grad_w
    del train_x, onehot  # before any test split is built
    # The first affine's bias is split back out of its weight's last row.
    params = [(weights[0][:, :d], weights[0][:, d]),
              *((w, b[:, 0]) for w, b in zip(weights[1:], biases))]
    for k, run in enumerate(live):
        for layer, (w, b) in zip(models[run].layers, params):
            layer.weight = w[k].copy()
            layer.bias = b[k].copy()
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
    The normal equations are formed and solved in float64 whatever the
    features' dtype.
    """
    x = np.asarray(dataset.train_x, dtype=np.float64)
    y = dataset.train_y.astype(np.float64)
    gram, rhs = x.T @ x, x.T @ y
    if fit_bias:
        # The bias column is all ones, so its Gram row and column are the
        # column sums and the row count: no copy of x with a ones column.
        # The sums are one BLAS product, cheaper than a reduction over rows.
        sums = np.ones(len(x)) @ x
        gram = np.block([[gram, sums[:, None]], [sums, float(len(x))]])
        rhs = np.append(rhs, y.sum())
    d = len(gram)
    gram += ridge * np.eye(d)
    if ridge == 0.0 and np.linalg.matrix_rank(gram) < d:
        raise SingularMatrixError(
            "singular normal equations; use ridge > 0 or a full-rank design")
    w = np.linalg.solve(gram, rhs)
    if fit_bias:
        weight, bias = w[:-1], w[-1:]
    else:
        weight, bias = w, np.zeros(1)
    return Model([Affine(weight=weight.reshape(-1, 1), bias=bias)])


TrainerFn = Callable[[DatasetStack, Sequence[Sequence[int]]],
                     list[list[TrainResult]]]


def mlp_trainer(config: TrainConfig) -> TrainerFn:
    """Trainer closure for the retraining pipeline: one stacked SGD run per
    call, with `train`'s stack, seed and result shapes."""

    def run(stack, seeds):
        sizes = [stack.n_features, *config.hidden, stack.n_classes]
        return train(sizes, stack, config, seeds)

    return run


def least_squares_trainer(config: TrainConfig) -> TrainerFn:
    """Deterministic closed-form trainer, with a bias, fitted one dataset of
    the stack at a time. The seeds are unused, so it fits once per dataset
    and returns that (model, accuracy) for every seed of the dataset. Its one
    output thresholds at 0.5, so more than two classes are refused."""

    def fit(dataset: ArrayDataset, seeds) -> list[TrainResult]:
        model = fit_least_squares(dataset, ridge=config.ridge, fit_bias=True)
        result = (model, accuracy(model, dataset.test_x, dataset.test_y))
        return [result for _ in seeds]

    def run(stack, seeds):
        if stack.n_classes > 2:
            raise ValueError(f"least_squares fits 2 classes, not "
                             f"{stack.n_classes}")
        # A dataset is freed when its `fit` returns, before the next is built.
        return [fit(stack.dataset(c), cell_seeds)
                for c, cell_seeds in enumerate(seeds)]

    return run
