"""Desk-scale remove-and-retrain (and keep-and-retrain) benchmark for
feature-importance estimators."""

from .nn import (ArrayDataset, Model, TrainConfig, fit_least_squares,
                 forward, input_gradient, train)
from .estimators import (EstimatorSettings, compute_estimates,
                         control_random, control_sobel, estimate_gb,
                         estimate_grad, estimate_ig)
from .pipeline import (ModifiedDataset, ResultGrid,
                       generate_modified_datasets, rank_features,
                       run_deletion_metric, run_roar)
from .toydata import ToyConfig, ToyDataset, generate_toy, ground_truth_ranking

__all__ = [
    "ArrayDataset", "Model", "TrainConfig", "fit_least_squares", "forward",
    "input_gradient", "train", "EstimatorSettings", "compute_estimates",
    "control_random", "control_sobel", "estimate_gb", "estimate_grad",
    "estimate_ig", "ModifiedDataset", "ResultGrid",
    "generate_modified_datasets", "rank_features", "run_deletion_metric",
    "run_roar", "ToyConfig", "ToyDataset", "generate_toy",
    "ground_truth_ranking",
]
