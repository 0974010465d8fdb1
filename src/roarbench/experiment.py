"""Glue between parsed configs and the pipeline: dataset construction,
baseline training, estimate computation, resumable grid execution, and
report generation."""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from . import datasets as ds_io
from . import nn, pipeline, toydata
from .config import ConfigError, ExperimentConfig, serialize_config
from .estimators import EstimatorSettings, compute_estimates, pass_family


@dataclass
class ExperimentContext:
    config: ExperimentConfig
    dataset: nn.ArrayDataset


def build_context(cfg: ExperimentConfig) -> ExperimentContext:
    spec = cfg.dataset
    if spec.kind == "toy":  # the config seed itself; bars derives its own
        return ExperimentContext(cfg, toydata.generate_toy(
            spec.n_train, spec.n_test, dim=spec.dim,
            n_informative=spec.n_informative, seed=cfg.seed))
    if spec.kind == "bars":
        return ExperimentContext(cfg, ds_io.generate_bars(
            spec.n_train, spec.n_test, size=spec.size, noise=spec.noise,
            seed=pipeline.derive_seed(cfg.seed, "dataset")))
    if spec.kind == "idx":
        return ExperimentContext(cfg, ds_io.load_idx_dataset(
            spec.train_images, spec.train_labels, spec.test_images,
            spec.test_labels))
    raise ConfigError(f"unknown dataset kind {spec.kind!r}")


def make_trainer(cfg: ExperimentConfig) -> nn.TrainerFn:
    if cfg.train.model == "least_squares":
        return nn.least_squares_trainer(cfg.train)
    return nn.mlp_trainer(cfg.train)


def train_baseline(ctx: ExperimentContext) -> tuple[nn.Model, float]:
    """Checkpoint on the unmodified data; estimates are computed against it."""
    trainer = make_trainer(ctx.config)
    [[result]] = trainer(nn.DatasetStack.of([ctx.dataset]),
                         [[pipeline.derive_seed(ctx.config.seed, "baseline")]])
    if isinstance(result, nn.TrainingDivergedError):
        raise result
    return result


def estimator_settings(ctx: ExperimentContext) -> EstimatorSettings:
    """The `[estimators]` keys; `noise_stddev = auto` is the SmoothGrad
    convention, 0.15 of the train split's value range."""
    spec = ctx.config.estimators
    x = ctx.dataset.train_x
    stddev = (0.15 * float(x.max() - x.min()) if spec.noise_stddev == "auto"
              else float(spec.noise_stddev))
    return EstimatorSettings(
        ig_steps=spec.ig_steps, ensemble_samples=spec.ensemble_samples,
        noise_stddev=stddev,
        seed=pipeline.derive_seed(ctx.config.seed, "ensemble"),
        image_shape=ctx.dataset.image_shape)


def _targets(model: nn.Model, labels: np.ndarray) -> np.ndarray:
    # Single-output (binary regression) models expose only unit 0.
    if model.output_dim == 1:
        return np.zeros_like(labels)
    return labels


def score_split(settings: EstimatorSettings, model: nn.Model, x: np.ndarray,
                y: np.ndarray, estimator_ids, split: str):
    """Yield (estimator_id, scores) for one split, family by family: the ids
    that reduce the same passes (`estimators.pass_family`), grouped in order
    of first appearance, share one `passes` dict, dropped when the family is
    done; an id alone in its family keeps none.

    Ensemble noise is keyed by `split` ("train" or "test") as well as the
    seed, so train row i and test row i draw different noise. The `random`
    control keeps the unkeyed seed: one ranking shared by both splits."""
    targets = _targets(model, y)
    keyed = replace(settings, seed=pipeline.derive_seed(settings.seed, split))
    families: dict[str, list[str]] = {}
    for estimator_id in estimator_ids:
        families.setdefault(pass_family(estimator_id), []).append(
            estimator_id)
    for family in families.values():
        passes = {} if len(family) > 1 else None
        for estimator_id in family:
            yield estimator_id, compute_estimates(
                estimator_id, settings if estimator_id == "random" else keyed,
                model, x, targets, passes=passes)


def compute_all_estimates(ctx: ExperimentContext, model: nn.Model
                          ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    settings = estimator_settings(ctx)
    ids = ctx.config.estimators.ids
    ds = ctx.dataset
    train = dict(score_split(settings, model, ds.train_x, ds.train_y, ids,
                             "train"))
    test = dict(score_split(settings, model, ds.test_x, ds.test_y, ids,
                            "test"))
    return {estimator_id: (train[estimator_id], test[estimator_id])
            for estimator_id in ids}


def deletion_estimates(ctx: ExperimentContext, model: nn.Model):
    """Yield (estimator_id, test-split scores) per configured estimator,
    scoring each only when it is asked for: all the deletion metric needs."""
    return score_split(estimator_settings(ctx), model, ctx.dataset.test_x,
                       ctx.dataset.test_y, ctx.config.estimators.ids, "test")


def save_baseline(cfg: ExperimentConfig, model: nn.Model, baseline_acc: float,
                  path: str):
    """`path`: the baseline's affine layers (`weight_<i>`, `bias_<i>`), its
    accuracy, and the sha256 of the canonical config text it was trained
    under."""
    arrays = {f"{name}_{i}": getattr(layer, name)
              for i, layer in enumerate(model.layers)
              for name in ("weight", "bias")}
    tmp = path + ".tmp.npz"  # suffix keeps savez from renaming it
    np.savez(tmp, accuracy=np.float64(baseline_acc),
             config_sha256=np.str_(config_sha256(cfg)), **arrays)
    os.replace(tmp, path)


def _read_npz(path: str) -> dict[str, np.ndarray]:
    """Every array of an npz file, or a ProvenanceError naming the file."""
    try:
        with open(path, "rb") as f, np.load(f) as data:
            return {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
        raise pipeline.ProvenanceError(
            f"cannot read {path}: {type(err).__name__}: {err}") from None


def load_baseline(cfg: ExperimentConfig, path: str
                  ) -> tuple[nn.Model, float]:
    """The baseline `save_baseline` wrote; a file of another config, one
    missing an array, or one numpy cannot read, is refused by name."""
    data = _read_npz(path)
    if ("config_sha256" not in data
            or str(data["config_sha256"]) != config_sha256(cfg)):
        raise pipeline.ProvenanceError(
            f"{path} holds a baseline of another config; use a fresh "
            f"output directory")
    n = sum(name.startswith("weight_") for name in data)
    try:
        affines = [nn.Affine(data[f"weight_{i}"], data[f"bias_{i}"])
                   for i in range(max(1, n))]
        baseline_acc = float(data["accuracy"])
    except KeyError as err:
        raise pipeline.ProvenanceError(
            f"{path} is incomplete: {err}") from None
    return nn.Model(affines), baseline_acc


def save_estimates(estimates, directory: str):
    os.makedirs(directory, exist_ok=True)
    for estimator_id, (train_scores, test_scores) in estimates.items():
        path = os.path.join(directory, f"{estimator_id}.npz")
        tmp = path + ".tmp.npz"  # suffix keeps savez from renaming it
        np.savez(tmp, train=train_scores, test=test_scores)
        os.replace(tmp, path)


def load_estimates(ctx: ExperimentContext, directory: str):
    """Cached scores of every configured estimator (`load_estimate`)."""
    return {estimator_id: load_estimate(ctx, directory, estimator_id)
            for estimator_id in ctx.config.estimators.ids}


def load_estimate(ctx: ExperimentContext, directory: str, estimator_id: str
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One estimator's cached (train, test) scores. Each split's scores must
    be finite, one row per sample of the context's split or one shared row."""
    d = ctx.dataset.n_features
    path = os.path.join(directory, f"{estimator_id}.npz")
    if not os.path.exists(path):
        raise pipeline.ProvenanceError(f"missing estimate file {path}")
    data = _read_npz(path)
    for split, x in (("train", ctx.dataset.train_x),
                     ("test", ctx.dataset.test_x)):
        if split not in data:
            raise pipeline.ProvenanceError(f"{path} holds no {split} scores")
        array = data[split]
        if array.shape not in ((len(x), d), (d,)):
            raise pipeline.ProvenanceError(
                f"{path} holds {split} scores of shape {array.shape}; the "
                f"config needs ({len(x)}, {d}) or ({d},)")
        if not np.all(np.isfinite(array)):
            raise pipeline.ProvenanceError(
                f"{path} holds non-finite {split} scores")
    return data["train"], data["test"]


# ---------------------------------------------------------------------------
# Resumable grid execution: one CSV fragment per estimator, written
# atomically; estimators whose fragment exists are skipped on rerun.

def config_text(cfg: ExperimentConfig) -> str:
    """The canonical config without its `output` line: what ties outputs to
    the config that produced them."""
    return "".join(line for line in serialize_config(cfg).splitlines(True)
                   if not line.startswith("output = "))


def config_sha256(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


def check_output_config(cfg: ExperimentConfig, output_dir: str,
                        stamp: bool = False):
    """`<output>/config.ini`, the `config_text`, ties an output directory to
    its config. A missing or different file is refused, not recomputed;
    `stamp` writes it into a directory that holds no `cells/`, `estimates/`,
    `modified/` or `baseline.npz`."""
    text = config_text(cfg)
    path = os.path.join(output_dir, "config.ini")
    if not os.path.exists(path):
        if not stamp or any(os.path.exists(os.path.join(output_dir, name))
                            for name in ("cells", "estimates", "modified",
                                         "baseline.npz")):
            raise pipeline.ProvenanceError(
                f"missing {path}: no record of {output_dir}'s config")
        os.makedirs(output_dir, exist_ok=True)
        pipeline._atomic_write_text(path, text)
        return
    with open(path) as f:
        if f.read() != text:
            raise pipeline.ProvenanceError(
                f"{path} records another config; use a fresh output directory")


def run_grid(ctx: ExperimentContext, model: nn.Model, output_dir: str):
    """Execute the estimate -> modify -> retrain grid with resumability.
    The unit of work is one estimator: an estimator whose fragment exists
    is skipped; the others are scored against `model` by one `score_split`
    per split, advanced in lockstep, so the ids of a pass family reduce one
    set of passes, family by family. Each is retrained by
    `pipeline.run_roar` as soon as it is scored, and its rows are written
    to its fragment in grid order. A family's passes are dropped once its
    last member has retrained. The `run_roar` calls share one dict, so each
    rank-free cell trains once per grid."""
    cfg = ctx.config
    ds = ctx.dataset
    os.makedirs(os.path.join(output_dir, "cells"), exist_ok=True)
    paths = {estimator_id: os.path.join(output_dir, "cells",
                                        f"{estimator_id}.csv")
             for estimator_id in cfg.estimators.ids}
    pending = []
    for estimator_id, path in paths.items():
        if os.path.exists(path):
            print(f"estimator={estimator_id} status=skipped",
                  file=sys.stderr, flush=True)
        else:
            pending.append(estimator_id)
    trainer = make_trainer(cfg)
    settings = estimator_settings(ctx)
    shared = {}
    for (estimator_id, train_scores), (_, test_scores) in zip(
            score_split(settings, model, ds.train_x, ds.train_y, pending,
                        "train"),
            score_split(settings, model, ds.test_x, ds.test_y, pending,
                        "test")):
        grid = pipeline.run_roar(
            ds, {estimator_id: (train_scores, test_scores)}, cfg.thresholds,
            trainer, cfg.runs_per_point, cfg.modes, cfg.seed, shared)
        pipeline._atomic_write_text(paths[estimator_id], "\n".join(
            map(pipeline.record_row, grid.entries)) + "\n")
        print(f"estimator={estimator_id} status=done", file=sys.stderr,
              flush=True)


def collect_grid(cfg: ExperimentConfig, output_dir: str) -> pipeline.ResultGrid:
    """Rebuild the result grid from per-estimator fragments; a fragment that
    does not hold its estimator's runs in grid order is refused by name."""
    grid = pipeline.ResultGrid()
    for estimator_id in cfg.estimators.ids:
        path = os.path.join(output_dir, "cells", f"{estimator_id}.csv")
        if not os.path.exists(path):
            raise pipeline.ProvenanceError(
                f"missing fragment {path}; rerun the grid")
        with open(path) as f:
            rows = f.read().splitlines()
        expected = [pipeline.row_key(estimator_id, t, mode, run)
                    for t in cfg.thresholds for mode in cfg.modes
                    for run in range(cfg.runs_per_point)]
        for i, (found, want) in enumerate(itertools.zip_longest(
                [row.rpartition(",")[0] for row in rows], expected,
                fillvalue="nothing")):
            if found != want:
                raise pipeline.ProvenanceError(
                    f"{path} row {i + 1}: expected {want}, found {found}")
        try:
            for row in rows:
                grid.add(pipeline.parse_row(row))
        except ValueError as err:
            raise pipeline.ProvenanceError(
                f"corrupt record in {path}: {err}") from None
    return grid


def write_report(cfg: ExperimentConfig, grid: pipeline.ResultGrid,
                 output_dir: str):
    """Per-record and aggregated CSVs of the records, `failures.csv` with
    the diverged runs, and per-estimator plot data with the retain-and-remove
    curves on shared axes."""
    grid.to_csv(os.path.join(output_dir, "results.csv"))
    grid.aggregated_to_csv(os.path.join(output_dir, "aggregated.csv"))
    failures = grid.failures  # in grid order
    pipeline._atomic_write_text(
        os.path.join(output_dir, "failures.csv"),
        "\n".join(["estimator,threshold,mode,run,reason",
                   *map(pipeline.record_row, failures)]) + "\n")
    if failures:
        print(f"failed runs={len(failures)}", file=sys.stderr)
    aggregated = grid.aggregate()  # sorted by (estimator, t, mode)
    for estimator_id in cfg.estimators.ids:
        lines = ["threshold,mode,mean_accuracy,std_accuracy"]
        lines += [f"{pipeline.threshold_text(t)},{mode},{mean:.10f},"
                  f"{std:.10f}" for est, t, mode, mean, std in aggregated
                  if est == estimator_id]
        pipeline._atomic_write_text(
            os.path.join(output_dir, f"plot_{estimator_id}.csv"),
            "\n".join(lines) + "\n")
