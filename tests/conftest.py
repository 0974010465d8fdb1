import numpy as np
import pytest

from roarbench import nn


def finite_difference(model, x, target, step=1e-5):
    """Central-difference gradient oracle, independent of backprop."""
    grad = np.zeros_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (nn.forward(model, hi[None])[0, target]
                   - nn.forward(model, lo[None])[0, target]) / (2 * step)
    return grad


def rectifier_preacts(model, x):
    """The input of each rectifier: the output of every affine but the
    last."""
    h = x
    preacts = []
    for layer in model.layers[:-1]:
        h = h @ layer.weight + layer.bias
        preacts.append(h.copy())
        h = np.maximum(h, 0.0)
    return preacts


def sample_away_from_kinks(model, rng, dim, margin=1e-3):
    """Input whose rectifier pre-activations stay away from zero, so the
    finite-difference oracle does not straddle a kink."""
    for _ in range(200):
        x = rng.standard_normal(dim)
        preacts = rectifier_preacts(model, x)
        if all(np.abs(p).min() > margin for p in preacts):
            return x
    pytest.skip("could not find a kink-free sample")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
