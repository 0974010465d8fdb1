"""Feature-importance estimators: gradient, guided backprop, integrated
gradients, the SmoothGrad-family ensembles, squared variants, and the two
model-independent controls (random scores, Sobel edge magnitude).

Every model-based estimator maps (model, X, targets) -- (n, d) rows and (n,)
target units -- to (n, d) scores, computed in the dtype of the rows and the
model together (`np.result_type`), as `nn.forward` computes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .nn import GUIDED, Model, input_gradient

SG = "sg"
SG_SQ = "sg_sq"
VAR = "var"

# Rows scored per pass; bounds the ensemble noise and gradient buffers.
ROW_BLOCK = 64


@dataclass
class EstimatorSettings:
    """Per-experiment knobs of the registry estimators, named as the
    `[estimators]` config keys."""

    ig_steps: int = 25
    ensemble_samples: int = 15
    noise_stddev: float = 0.15
    seed: int = 0  # ensemble noise streams and the random control
    image_shape: tuple[int, int, int] | None = None  # (H, W, C), images only


def estimate_grad(model: Model, x: np.ndarray, targets) -> np.ndarray:
    return input_gradient(model, x, targets)


def estimate_gb(model: Model, x: np.ndarray, targets) -> np.ndarray:
    return input_gradient(model, x, targets, mode=GUIDED)


def estimate_ig(model: Model, x: np.ndarray, targets, steps: int,
                reference: np.ndarray | None = None) -> np.ndarray:
    """Riemann approximation, in `steps` steps, of the path integral from
    the reference (all-zeros by default) to each row of x.

    Along the straight path the first affine's output is affine in the step
    fraction a_j = j / steps: h_j = a_j A + B, with A = (x - ref) W1 and
    B = ref W1 + b1. So W1 is applied once each way per path: every step's
    rectified h_j goes through the layers above it in one batched gradient
    pass, and the masked gradients, summed over steps, go back through W1
    once. A one-affine model has the constant gradient W1[:, target].
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    first, upper = model.layers[0], model.layers[1:]
    x = np.asarray(x)
    dtype = np.result_type(x, first.weight)
    x = x.astype(dtype, copy=False)
    if x.ndim != 2:
        raise ValueError(f"input of shape {x.shape}; expected (n, d) rows")
    ref = np.zeros(x.shape[1:], dtype) if reference is None else np.asarray(
        reference, dtype=dtype)
    if ref.shape != x.shape[1:]:
        raise ValueError(f"reference shape {ref.shape} != sample shape "
                         f"{x.shape[1:]}")
    targets = np.asarray(targets)
    if targets.shape != (len(x),):  # checked before the path tiles them
        raise ValueError(f"{targets.shape} targets for {len(x)} rows")
    delta = x - ref
    if not upper:
        return delta * input_gradient(model, x, targets)
    fractions = (np.arange(1, steps + 1)[:, None, None] / steps).astype(dtype)
    h = fractions * (delta @ first.weight)  # (steps, n, h1)
    h += ref @ first.weight + first.bias
    path_shape = h.shape
    h = np.maximum(h, 0.0, out=h).reshape(-1, path_shape[2])
    # Row j * n + i is step j + 1 of row i; a rectified unit passes the
    # gradient where it is positive, as its input is.
    g = input_gradient(Model(upper), h, np.tile(targets, steps))
    g *= h > 0.0
    return delta * (g.reshape(path_shape).sum(axis=0)
                    @ first.weight.T) / steps


def ensemble_noise(seed: int, first_row: int, rows: int, count: int
                   ) -> np.ndarray:
    """`count` float32 standard normals for each of rows
    [first_row, first_row + rows), as a (rows, count) array.

    One PCG64 stream of `seed` holds every row: row r reads the m float32
    uniforms at offset r * m, m being `count` padded to an even number.
    Box-Muller turns uniform j of the first half and uniform j of the second
    into the row's values j (cosine) and m / 2 + j (sine). A row's values
    depend on its index alone, not on the rows drawn with it. Uniforms and
    trig are float32 (float64 trig costs several times as much);
    1 - u >= 2**-24 bounds every value at sqrt(48 ln 2) ~ 5.77.
    """
    pairs = -(-count // 2)
    bits = np.random.PCG64(seed)
    bits.advance(first_row * pairs)  # one 64-bit output per float32 pair
    u = np.random.Generator(bits).random((rows, 2, pairs), dtype=np.float32)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    angle = np.float32(2.0 * np.pi) * u[:, 1]
    np.cos(angle, out=u[:, 0])
    np.sin(angle, out=u[:, 1])
    u *= radius[:, None]
    return u.reshape(rows, 2 * pairs)[:, :count]


def ensemble_moments(base: Callable[[Model, np.ndarray, np.ndarray],
                                     np.ndarray],
                     model: Model, x: np.ndarray, targets,
                     settings: EstimatorSettings, first_row: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and mean of squares of the base estimates of
    `settings.ensemble_samples` noisy copies of x, from which SG, SG-SQ and
    VAR are reductions.

    Row i's noise is row first_row + i of `ensemble_noise(settings.seed,
    ...)`, scaled by the stddev and added to the row in float64, so a row's
    scores do not depend on the rows batched with it. Each noisy copy is
    then rounded once to the dtype of x and the model, and scored in it.
    The moments are float64 whatever that dtype: VAR's mean_sq - mean**2
    cancels, so they accumulate in float64.
    """
    x = np.asarray(x)
    samples, stddev = settings.ensemble_samples, settings.noise_stddev
    if samples < 1:
        raise ValueError(f"ensemble_samples must be >= 1, got {samples}")
    if stddev == 0.0:
        # Every draw is x itself: one pass gives the moments exactly.
        scores = base(model, x, targets).astype(np.float64, copy=False)
        return scores, scores ** 2
    n, d = x.shape
    dtype = np.result_type(x, model.layers[0].weight)
    noise = ensemble_noise(settings.seed, first_row, n,
                           samples * d).reshape(n, samples, d)
    acc = np.zeros((n, d))
    acc_sq = np.zeros((n, d))
    for sample in range(samples):
        noisy = np.multiply(noise[:, sample], stddev, dtype=np.float64)
        noisy += x
        scores = base(model, noisy.astype(dtype, copy=False), targets)
        acc += scores
        acc_sq += np.square(scores, dtype=np.float64)
    return acc / samples, acc_sq / samples


def _reduce(mode: str, mean: np.ndarray, mean_sq: np.ndarray) -> np.ndarray:
    if mode == SG:
        return mean
    if mode == SG_SQ:
        return mean_sq
    return mean_sq - mean ** 2  # VAR


def control_random(sample_shape, seed: int) -> np.ndarray:
    """Uniform(0,1) scores from the seed alone; its induced top-t selection is
    a uniformly random subset, independent of model and input content."""
    rng = np.random.default_rng(np.uint64(seed))
    return rng.uniform(0.0, 1.0, size=sample_shape)


def control_sobel(images: np.ndarray) -> np.ndarray:
    """Edge-magnitude scores of the channel-mean grayscale images.

    `images` is an (H, W, C) image or an (n, H, W, C) stack; the per-pixel
    magnitude is broadcast across channels. Replicate padding at the borders.
    """
    if images.ndim < 3:
        raise ValueError("control_sobel needs (H, W, C) images; dataset is "
                         "missing image metadata")
    gray = images.astype(np.float64).mean(axis=-1)
    padded = np.pad(gray, [(0, 0)] * (gray.ndim - 2) + [(1, 1), (1, 1)],
                    mode="edge")
    # Separable form: central difference then [1, 2, 1] smoothing. Taking
    # the difference first makes constant images exactly zero.
    dx = padded[..., 2:] - padded[..., :-2]
    gx = dx[..., :-2, :] + 2.0 * dx[..., 1:-1, :] + dx[..., 2:, :]
    dy = padded[..., 2:, :] - padded[..., :-2, :]
    gy = dy[..., :-2] + 2.0 * dy[..., 1:-1] + dy[..., 2:]
    mag = np.sqrt(gx ** 2 + gy ** 2)
    return np.repeat(mag[..., None], images.shape[-1], axis=-1)


# ---------------------------------------------------------------------------
# Estimator registry: string ids, scored by compute_estimates.

BASE_IDS = ("grad", "gb", "ig")
ENSEMBLE_MODES = (SG, SG_SQ, VAR)
CONTROL_IDS = ("random", "sobel")


def all_estimator_ids() -> list[str]:
    ids = list(BASE_IDS)
    ids += [f"{m}-{b}" for m in ENSEMBLE_MODES for b in BASE_IDS]
    ids += [f"{b}-sq" for b in BASE_IDS]
    ids += list(CONTROL_IDS)
    return ids


def pass_family(estimator_id: str) -> str:
    """Name of the passes an estimator reduces: `<b>` and `<b>-sq` share the
    base passes `<b>`, and `sg-<b>`, `sg_sq-<b>` and `var-<b>` share the
    noisy passes `noisy-<b>`; a control is a family of its own."""
    head, _, tail = estimator_id.partition("-")
    return f"noisy-{tail}" if head in ENSEMBLE_MODES else head


def compute_estimates(estimator_id: str, settings: EstimatorSettings,
                      model: Model, x: np.ndarray, targets: np.ndarray,
                      passes: dict | None = None) -> np.ndarray:
    """Score every row of a feature matrix with a registry estimator;
    returns (n, d) scores.

    Rows are scored ROW_BLOCK at a time. Ensemble row i draws its noise at
    row i of `ensemble_noise(seed, ...)`, i being its index in x, so the
    blocks change nothing. Scores come out in the dtype of x and the model
    together; rows of a narrower dtype than the model's are promoted one
    block at a time, never the whole split. The controls are computed in
    float64 and stored in the split's dtype.

    `passes`, owned by the caller for one (model, x), keeps each row block's
    base pass or noisy-pass moments under the estimator's `pass_family`, so
    the other ids of the family reduce them instead of running them again.
    The scores are the same bits with or without it.
    """
    if estimator_id not in all_estimator_ids():
        raise ValueError(f"unknown estimator id {estimator_id!r}")
    if estimator_id == "sobel" and settings.image_shape is None:
        raise ValueError("sobel control requires image metadata")
    x = np.asarray(x)
    targets = np.asarray(targets)
    head, _, tail = estimator_id.partition("-")
    bases = {"grad": estimate_grad, "gb": estimate_gb,
             "ig": partial(estimate_ig, steps=settings.ig_steps)}

    def run_pass(rows: slice):
        if head in ENSEMBLE_MODES:
            return ensemble_moments(bases[tail], model, x[rows],
                                    targets[rows], settings, rows.start)
        return bases[head](model, x[rows], targets[rows])

    # Controls are stored in the split's (floating) dtype, model scores in
    # the dtype the rows and the model compute in.
    dtype = np.result_type(x, np.float32 if estimator_id in CONTROL_IDS
                           else model.layers[0].weight)
    out = np.empty(x.shape, dtype)
    for start in range(0, len(x), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        if estimator_id == "random":
            # One shared score vector: every sample gets the same ranking.
            out[rows] = control_random(x.shape[1], settings.seed)
            continue
        if estimator_id == "sobel":
            images = x[rows].reshape(-1, *settings.image_shape)
            out[rows] = control_sobel(images).reshape(len(images), -1)
            continue
        if passes is None:
            scores = run_pass(rows)
        else:
            key = (pass_family(estimator_id), start)
            if key not in passes:
                passes[key] = run_pass(rows)
            scores = passes[key]
        if head in ENSEMBLE_MODES:
            out[rows] = _reduce(head, *scores)
        else:
            out[rows] = scores ** 2 if tail == "sq" else scores
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite scores from {estimator_id}")
    return out
