"""Synthetic 16-dimensional binary task with 4 informative features, plus the
three reference rankings (ground truth, inverted, random) used to contrast
retrain-based evaluation against the no-retrain deletion metric."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import ArrayDataset

GROUND_TRUTH = "ground_truth"
INVERTED = "inverted"
RANDOM = "random"


@dataclass
class ToyDataset(ArrayDataset):
    """A toy draw and the coefficient vectors it was drawn with."""

    # (dim,) each; signal_coeffs is zero past the informative block.
    signal_coeffs: np.ndarray = field(kw_only=True)
    confound_coeffs: np.ndarray = field(kw_only=True)


def generate_toy(n_train: int = 10_000, n_test: int = 2_000, dim: int = 16,
                 n_informative: int = 4, seed: int = 0) -> ToyDataset:
    """x = a*z/10 + d*eta + eps/10 with y = (z > 0).

    The coefficient vectors a (informative block only) and d are drawn once
    per dataset; z, eta (scalars) and eps (vector) are drawn per sample, all
    standard normal. The first n_train samples are the train split.
    """
    if n_informative > dim:
        raise ValueError("n_informative exceeds dim")
    n = n_train + n_test
    rng = np.random.default_rng(np.uint64(seed))
    a = rng.standard_normal(dim)
    a[n_informative:] = 0.0
    d = rng.standard_normal(dim)
    z = rng.standard_normal(n)
    eta = rng.standard_normal(n)
    eps = rng.standard_normal((n, dim))
    # a*z/10 + d*eta + eps/10 in place, in the same order: the same bits.
    x = np.outer(z, a)
    x /= 10.0
    x += np.outer(eta, d)
    eps /= 10.0
    x += eps
    y = (z > 0.0).astype(np.int64)
    return ToyDataset(x[:n_train], y[:n_train], x[n_train:], y[n_train:],
                      signal_coeffs=a, confound_coeffs=d)


def ground_truth_ranking(dataset: ToyDataset, variant: str,
                         seed: int = 0) -> np.ndarray:
    """Uniform feature ranking applied to every sample.

    Ground truth sorts by |a_i| descending (informative block first);
    inverted is its exact reverse; random is a seeded shuffle.
    """
    order = np.argsort(-np.abs(dataset.signal_coeffs), kind="stable")
    if variant == GROUND_TRUTH:
        return order
    if variant == INVERTED:
        return order[::-1].copy()
    if variant == RANDOM:
        rng = np.random.default_rng(np.uint64(seed))
        return rng.permutation(len(dataset.signal_coeffs))
    raise ValueError(f"unknown ranking variant {variant!r}")
