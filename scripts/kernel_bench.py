#!/usr/bin/env python3
"""In-process timings of the kernels the benchmark's stages are built from,
on fixed bars shapes (12x12 images, d = 144, hidden 32, batch 32, two
classes). Each time is the min over --repeats runs:

  sgd_step_us_r5, sgd_step_us_r50  one stacked SGD step of nn.train at R = 5
                                   and R = 50 runs, as (time of 2S steps -
                                   time of S steps) / S, so setup, init and
                                   scoring cancel;
  input_gradient_us                nn.input_gradient on a 64-row block,
                                   float64 model and rows;
  input_gradient_f32_us            the same on the model cast to
                                   nn.TRAIN_DTYPE, as a trained baseline
                                   is, and the bars rows as they are built;
  ensemble_noise_us                estimators.ensemble_noise for a 64-row
                                   block at S = 5 noisy copies;
  split_cell_us                    one pipeline.split_cells cell: the
                                   split's score check, its top-k selection
                                   and the modified rows, ROAR at t = 0.5;
  split_grid_us                    one split's six cells, t in {0, 0.5,
                                   0.9} x {roar, kar}, from a single
                                   pipeline.split_cells call in the order
                                   run_roar asks for them, so a threshold's
                                   two cells share one selection;
  estimate_peak_mb                 the tracemalloc peak, in 10^6 bytes, of
                                   experiment.save_estimates writing what
                                   compute_all_estimates yields for the
                                   scripts/bars_benchmark.py ids on both
                                   float32 bars splits, scored against the
                                   TRAIN_DTYPE model; measured once.

Prints one JSON line. Pin one BLAS thread to compare two checkouts:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/kernel_bench.py
"""

import argparse
import json
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from roarbench import datasets, estimators, experiment, nn, pipeline
from roarbench.config import parse_config

SIZE, HIDDEN, BATCH, N_TRAIN, N_TEST, BLOCK = 12, 32, 32, 300, 64, 64
SAMPLES = 5  # the bars-grid workload's ensemble_samples
ESTIMATE_CONFIG = f"""
[dataset]
kind = bars
n_train = {N_TRAIN}
n_test = {N_TEST}
size = {SIZE}

[estimators]
ids = grad, gb, ig, sg-grad, sg_sq-grad, var-grad, grad-sq, random, sobel
ig_steps = 10
ensemble_samples = {SAMPLES}
"""


def best_of(repeats: int, fn) -> float:
    """The least wall time of `repeats` calls of fn, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sgd_step_us(dataset, runs: int, steps: int, repeats: int) -> float:
    stack = nn.DatasetStack.of([dataset])
    sizes = [dataset.n_features, HIDDEN, 2]

    def train(n_steps):
        cfg = nn.TrainConfig(hidden=[HIDDEN], learning_rate=0.2,
                             steps=n_steps, batch_size=BATCH)
        return best_of(repeats, lambda: nn.train(sizes, stack, cfg,
                                                 [list(range(runs))]))

    return 1e6 * (train(2 * steps) - train(steps)) / steps


def split_grid(dataset, scores, replacement):
    cell = pipeline.split_cells(dataset, "train", scores, replacement)
    for threshold in (0.0, 0.5, 0.9):
        for mode in (pipeline.ROAR, pipeline.KAR):
            cell(threshold, mode)


def estimate_peak_mb(dataset, model) -> float:
    ctx = experiment.ExperimentContext(parse_config(ESTIMATE_CONFIG), dataset)
    with tempfile.TemporaryDirectory() as directory:
        tracemalloc.start()
        try:
            experiment.save_estimates(
                experiment.compute_all_estimates(ctx, model), directory)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def measure(steps: int, repeats: int) -> dict:
    dataset = datasets.generate_bars(N_TRAIN, N_TEST, size=SIZE, seed=0)
    model = nn.init_mlp([dataset.n_features, HIDDEN, 2],
                        np.random.default_rng(0))
    model32 = nn.Model([nn.Affine(a.weight.astype(nn.TRAIN_DTYPE),
                                  a.bias.astype(nn.TRAIN_DTYPE))
                        for a in model.layers])
    block, targets = dataset.train_x[:BLOCK], dataset.train_y[:BLOCK]
    block64 = block.astype(np.float64)
    scores = np.random.default_rng(1).standard_normal(dataset.train_x.shape)
    replacement = pipeline.replacement_matrix(dataset)
    return {
        "sgd_step_us_r5": sgd_step_us(dataset, 5, steps, repeats),
        "sgd_step_us_r50": sgd_step_us(dataset, 50, steps, repeats),
        "input_gradient_us": 1e6 * best_of(
            repeats, lambda: nn.input_gradient(model, block64, targets)),
        "input_gradient_f32_us": 1e6 * best_of(
            repeats, lambda: nn.input_gradient(model32, block, targets)),
        "ensemble_noise_us": 1e6 * best_of(
            repeats, lambda: estimators.ensemble_noise(
                0, BLOCK, BLOCK, SAMPLES * dataset.n_features)),
        "split_cell_us": 1e6 * best_of(repeats, lambda: pipeline.split_cells(
            dataset, "train", scores, replacement)(0.5, pipeline.ROAR)),
        "split_grid_us": 1e6 * best_of(
            repeats, lambda: split_grid(dataset, scores, replacement)),
        "estimate_peak_mb": estimate_peak_mb(dataset, model32),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--steps", type=int, default=200,
                        help="S, the shorter of the two SGD runs (default 200)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="runs per figure; the min is kept (default 7)")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be at least 1")
    print(json.dumps({name: round(value, 2) for name, value in
                      measure(args.steps, args.repeats).items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
