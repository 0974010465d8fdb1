"""Glue between parsed configs and the pipeline: dataset construction,
baseline training, estimate computation, resumable grid execution, and
report generation."""

from __future__ import annotations

import os
import sys
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
    image_shape: tuple[int, int, int] | None  # None: flat data

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
        return ExperimentContext(cfg, toy.split(spec.n_train), None)
    if spec.kind == "bars":
        image = ds_io.generate_bars(
            spec.n_train, spec.n_test, size=spec.size, noise=spec.noise,
            seed=pipeline.derive_seed(cfg.seed, "dataset"))
        return ExperimentContext(cfg, image.as_dataset(), image.image_shape)
    if spec.kind == "idx":
        image = ds_io.load_idx_dataset(spec.train_images, spec.train_labels,
                                       spec.test_images, spec.test_labels)
        return ExperimentContext(cfg, image.as_dataset(), image.image_shape)
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
    [result] = trainer(ctx.dataset,
                       [pipeline.derive_seed(ctx.config.seed, "baseline")])
    if isinstance(result, nn.TrainingDivergedError):
        raise result
    return result


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


def estimate_splits(ctx: ExperimentContext, settings: EstimatorSettings,
                    model: nn.Model, estimator_id: str
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One estimator's train and test scores."""
    return tuple(compute_estimates(estimator_id, settings, model, x,
                                   _targets(model, y))
                 for x, y in ((ctx.dataset.train_x, ctx.dataset.train_y),
                              (ctx.dataset.test_x, ctx.dataset.test_y)))


def compute_all_estimates(ctx: ExperimentContext, model: nn.Model
                          ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    settings = estimator_settings(ctx)
    return {estimator_id: estimate_splits(ctx, settings, model, estimator_id)
            for estimator_id in ctx.config.estimators.ids}


def deletion_estimates(ctx: ExperimentContext, model: nn.Model):
    """Yield (estimator_id, test-split scores) per configured estimator,
    scoring each only when it is asked for: all the deletion metric needs."""
    settings = estimator_settings(ctx)
    targets = _targets(model, ctx.dataset.test_y)
    for estimator_id in ctx.config.estimators.ids:
        yield estimator_id, compute_estimates(
            estimator_id, settings, model, ctx.dataset.test_x, targets)


def save_estimates(estimates, directory: str):
    os.makedirs(directory, exist_ok=True)
    for estimator_id, (train_scores, test_scores) in estimates.items():
        path = os.path.join(directory, f"{estimator_id}.npz")
        tmp = path + ".tmp.npz"  # suffix keeps savez from renaming it
        np.savez(tmp, train=train_scores, test=test_scores)
        os.replace(tmp, path)


def load_estimates(ctx: ExperimentContext, directory: str):
    """Cached scores of every configured estimator. Each split's scores must
    be one row per sample of the context's split, or one shared row."""
    d = ctx.dataset.n_features
    out = {}
    for estimator_id in ctx.config.estimators.ids:
        path = os.path.join(directory, f"{estimator_id}.npz")
        if not os.path.exists(path):
            raise pipeline.ProvenanceError(f"missing estimate file {path}")
        with np.load(path) as data:
            scores = []
            for split, x in (("train", ctx.dataset.train_x),
                             ("test", ctx.dataset.test_x)):
                if split not in data.files:
                    raise pipeline.ProvenanceError(
                        f"{path} holds no {split} scores")
                array = data[split]
                if array.shape not in ((len(x), d), (d,)):
                    raise pipeline.ProvenanceError(
                        f"{path} holds {split} scores of shape "
                        f"{array.shape}; the config needs ({len(x)}, {d}) "
                        f"or ({d},)")
                scores.append(array)
        out[estimator_id] = tuple(scores)
    return out


# ---------------------------------------------------------------------------
# Resumable grid execution: one CSV fragment per (estimator, threshold, mode)
# cell, written atomically; completed cells are skipped on rerun.

def _log(message: str):
    print(message, file=sys.stderr, flush=True)


def run_grid(ctx: ExperimentContext, model: nn.Model, output_dir: str):
    """Execute the estimate -> modify -> retrain grid with resumability.

    The unit of work is one estimator: if any of its cells is pending, it
    is scored against `model`, and its pending cells retrain as one stack.
    An estimator whose cells are all done is never scored.
    """
    cfg = ctx.config
    cells_dir = os.path.join(output_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    trainer = make_trainer(cfg)
    settings = estimator_settings(ctx)
    replacement = pipeline.replacement_matrix(ctx.dataset.train_x,
                                              ctx.image_shape)
    cells = [(t, m) for t in cfg.thresholds for m in cfg.modes]
    for estimator_id in cfg.estimators.ids:
        paths = [os.path.join(cells_dir,
                              pipeline.cell_name(estimator_id, *cell) + ".csv")
                 for cell in cells]
        pending = [cell for cell, path in zip(cells, paths)
                   if not os.path.exists(path)]
        results = {}
        if pending:
            results = dict(zip(pending, pipeline.retrain_estimator(
                ctx.dataset, replacement,
                *estimate_splits(ctx, settings, model, estimator_id),
                estimator_id, pending, trainer, cfg.seed, cfg.runs_per_point,
                ctx.image_shape)))
        for (threshold, mode), path in zip(cells, paths):
            cell_results = results.get((threshold, mode))
            if cell_results is not None:
                outcomes = pipeline.cell_outcomes(estimator_id, threshold,
                                                  mode, cell_results)
                pipeline._atomic_write_text(path, "\n".join(
                    map(pipeline.record_row, outcomes)) + "\n")
            status = "skipped" if cell_results is None else "done"
            _log(f"cell estimator={estimator_id} threshold={threshold:g} "
                 f"mode={mode} status={status}")


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
                    rows = [line.strip().split(",") for line in f]
                if len(rows) != cfg.runs_per_point:
                    raise pipeline.ProvenanceError(
                        f"{path} holds {len(rows)} records, the config asks "
                        f"for runs_per_point = {cfg.runs_per_point}")
                cell = [estimator_id, f"{threshold:.6f}", mode]
                for parts in rows:
                    if len(parts) != 5:
                        raise pipeline.ProvenanceError(
                            f"corrupt cell record in {path}")
                    if parts[:3] != cell:
                        raise pipeline.ProvenanceError(
                            f"{path} holds a record of cell "
                            f"{','.join(parts[:3])}, not {','.join(cell)}")
                    est, t, mode_, run, acc = parts
                    if acc.startswith("failed:"):
                        grid.add(pipeline.CellFailure(
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
