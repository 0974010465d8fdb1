"""Glue between parsed configs and the pipeline: dataset construction,
baseline training, estimate computation, resumable grid execution, and
report generation."""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import datasets as ds_io
from . import nn, pipeline, toydata
from .config import ConfigError, ExperimentConfig
from .estimators import (EnsembleConfig, EstimatorSettings, IGConfig,
                         compute_estimates, default_noise_stddev)


@dataclass
class ExperimentContext:
    config: ExperimentConfig
    dataset: nn.ArrayDataset
    image_shape: tuple[int, int, int] | None
    granularity: str

    @property
    def source_id(self) -> str:
        return self.config.dataset.kind


def build_context(cfg: ExperimentConfig) -> ExperimentContext:
    spec = cfg.dataset
    if spec.kind == "toy":
        toy = toydata.generate_toy(toydata.ToyConfig(
            n_samples=spec.n_train + spec.n_test, dim=spec.dim,
            n_informative=spec.n_informative,
            seed=pipeline.derive_seed(cfg.seed, "dataset")))
        return ExperimentContext(cfg, toy.split(spec.n_train), None,
                                 pipeline.FEATURE)
    if spec.kind == "bars":
        image = ds_io.generate_bars(
            spec.n_train, spec.n_test, size=spec.size, noise=spec.noise,
            seed=pipeline.derive_seed(cfg.seed, "dataset"))
        return ExperimentContext(cfg, image.as_dataset(), image.image_shape,
                                 pipeline.PIXEL)
    if spec.kind == "idx":
        image = ds_io.load_idx_dataset(spec.train_images, spec.train_labels,
                                       spec.test_images, spec.test_labels)
        return ExperimentContext(cfg, image.as_dataset(), image.image_shape,
                                 pipeline.PIXEL)
    raise ConfigError(f"unknown dataset kind {spec.kind!r}")


def make_trainer(cfg: ExperimentConfig) -> nn.TrainerFn:
    if cfg.train.model == "least_squares":
        return nn.least_squares_trainer(ridge=cfg.train.ridge)
    return nn.mlp_trainer(cfg.train.hidden, nn.TrainConfig(
        learning_rate=cfg.train.learning_rate, steps=cfg.train.steps,
        batch_size=cfg.train.batch_size, loss=cfg.train.loss))


def train_baseline(ctx: ExperimentContext) -> tuple[nn.Model, float]:
    """Checkpoint on the unmodified data; estimates are computed against it."""
    trainer = make_trainer(ctx.config)
    seed = pipeline.derive_seed(ctx.config.seed, "baseline")
    return trainer(ctx.dataset, seed)


def estimator_settings(ctx: ExperimentContext) -> EstimatorSettings:
    spec = ctx.config.estimators
    if spec.noise_stddev == "auto":
        stddev = default_noise_stddev(ctx.dataset.train_x)
    else:
        stddev = float(spec.noise_stddev)
    return EstimatorSettings(
        ig=IGConfig(steps=spec.ig_steps),
        ensemble=EnsembleConfig(
            samples=spec.ensemble_samples, noise_stddev=stddev,
            seed=pipeline.derive_seed(ctx.config.seed, "ensemble")),
        image_shape=ctx.image_shape,
    )


def _targets(model: nn.Model, labels: np.ndarray) -> np.ndarray:
    # Single-output (binary regression) models expose only unit 0.
    if model.output_dim == 1:
        return np.zeros_like(labels)
    return labels


def compute_all_estimates(ctx: ExperimentContext, model: nn.Model
                          ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    settings = estimator_settings(ctx)
    out = {}
    for estimator_id in ctx.config.estimators.ids:
        train_scores = compute_estimates(
            estimator_id, settings, model, ctx.dataset.train_x,
            _targets(model, ctx.dataset.train_y))
        test_scores = compute_estimates(
            estimator_id, settings, model, ctx.dataset.test_x,
            _targets(model, ctx.dataset.test_y))
        out[estimator_id] = (train_scores, test_scores)
    return out


def save_estimates(estimates, directory: str):
    os.makedirs(directory, exist_ok=True)
    for estimator_id, (train_scores, test_scores) in estimates.items():
        path = os.path.join(directory, f"{estimator_id}.npz")
        tmp = path + ".tmp.npz"  # suffix keeps savez from renaming it
        np.savez(tmp, train=train_scores, test=test_scores)
        os.replace(tmp, path)


def load_estimates(directory: str, estimator_ids):
    out = {}
    for estimator_id in estimator_ids:
        path = os.path.join(directory, f"{estimator_id}.npz")
        with np.load(path) as data:
            out[estimator_id] = (data["train"], data["test"])
    return out


# ---------------------------------------------------------------------------
# Resumable grid execution: one CSV fragment per (estimator, threshold, mode)
# cell, written atomically; completed cells are skipped on rerun.

def _log(message: str):
    print(message, file=sys.stderr, flush=True)


def run_grid(ctx: ExperimentContext, estimates, output_dir: str):
    """Execute the estimate -> modify -> retrain grid with resumability."""
    cfg = ctx.config
    cells_dir = os.path.join(output_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    trainer = make_trainer(cfg)

    cells = [(e, t, m) for e in cfg.estimators.ids for t in cfg.thresholds
             for m in cfg.modes]

    def run_cell(cell):
        estimator_id, threshold, mode = cell
        path = os.path.join(cells_dir, pipeline.cell_name(*cell) + ".csv")
        if os.path.exists(path):
            _log(f"cell estimator={estimator_id} threshold={threshold:g} "
                 f"mode={mode} status=skipped")
            return
        train_scores, test_scores = estimates[estimator_id]
        modified = pipeline.make_modified_dataset(
            ctx.dataset, train_scores, test_scores, estimator_id, threshold,
            mode, seed=cfg.seed, source_id=ctx.source_id,
            granularity=ctx.granularity, image_shape=ctx.image_shape)
        dataset = modified.as_dataset()
        lines = []
        for run in range(cfg.runs_per_point):
            seed = pipeline.derive_seed(cfg.seed, estimator_id,
                                        f"{threshold:.6f}", mode, run)
            try:
                _, acc = trainer(dataset, seed)
            except nn.TrainingDivergedError as err:
                lines.append(f"{estimator_id},{threshold:.6f},{mode},{run},"
                             f"failed:{err.step}")
                continue
            lines.append(f"{estimator_id},{threshold:.6f},{mode},{run},"
                         f"{acc:.10f}")
        pipeline._atomic_write_text(path, "\n".join(lines) + "\n")
        _log(f"cell estimator={estimator_id} threshold={threshold:g} "
             f"mode={mode} status=done")

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(run_cell, cells))
    else:
        for cell in cells:
            run_cell(cell)


def collect_grid(ctx: ExperimentContext, output_dir: str) -> pipeline.ResultGrid:
    """Rebuild the result grid from per-cell fragments."""
    cfg = ctx.config
    cells_dir = os.path.join(output_dir, "cells")
    grid = pipeline.ResultGrid()
    for estimator_id in cfg.estimators.ids:
        for threshold in cfg.thresholds:
            for mode in cfg.modes:
                path = os.path.join(cells_dir, pipeline.cell_name(
                    estimator_id, threshold, mode) + ".csv")
                if not os.path.exists(path):
                    raise pipeline.ProvenanceError(
                        f"missing cell result {path}; rerun the grid")
                with open(path) as f:
                    for line in f:
                        parts = line.strip().split(",")
                        if len(parts) != 5:
                            raise pipeline.ProvenanceError(
                                f"corrupt cell record in {path}")
                        est, t, mode_, run, acc = parts
                        if acc.startswith("failed:"):
                            grid.failures.append(pipeline.CellFailure(
                                est, float(t), mode_, int(run), acc))
                        else:
                            grid.add(pipeline.Record(
                                est, float(t), mode_, int(run), float(acc)))
    return grid


def write_report(ctx: ExperimentContext, grid: pipeline.ResultGrid,
                 output_dir: str):
    """Per-record and aggregated CSVs plus per-estimator plot data with the
    retain-and-remove curves on shared axes."""
    grid.to_csv(os.path.join(output_dir, "results.csv"))
    grid.aggregated_to_csv(os.path.join(output_dir, "aggregated.csv"))
    aggregated = grid.aggregate()
    for estimator_id in ctx.config.estimators.ids:
        rows = {}
        for est, t, mode, mean, std in aggregated:
            if est == estimator_id:
                rows.setdefault(t, {})[mode] = (mean, std)
        lines = ["threshold,mode,mean_accuracy,std_accuracy"]
        for t in sorted(rows):
            for mode in sorted(rows[t]):
                mean, std = rows[t][mode]
                lines.append(f"{t:.6f},{mode},{mean:.10f},{std:.10f}")
        pipeline._atomic_write_text(
            os.path.join(output_dir, f"plot_{estimator_id}.csv"),
            "\n".join(lines) + "\n")
