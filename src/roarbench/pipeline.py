"""Remove-and-retrain engine: per-sample rankings, batched dataset
modification at a threshold grid, repeated retraining, the no-retrain
deletion metric, and the accuracy result grid with CSV export."""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .nn import (TRAIN_DTYPE, ArrayDataset, DatasetStack, Model, TrainerFn,
                 TrainingDivergedError, accuracy)

ROAR = "roar"
KAR = "kar"


class ProvenanceError(ValueError):
    pass


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from a base seed and cell coordinates."""
    key = "|".join([str(base_seed), *map(str, parts)])
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def run_seeds(base_seed: int, key: tuple[str, ...],
              runs_per_point: int) -> list[int]:
    """The seeds of the retraining runs of the grid cell with this
    `cell_key`, run index order."""
    return [derive_seed(base_seed, *key, run) for run in range(runs_per_point)]


def rank_features(scores: np.ndarray,
                  image_shape: tuple[int, int, int] | None = None) -> np.ndarray:
    """Descending ranking along the last axis of (..., d) flat scores; ties
    break by ascending index.

    Given an image_shape, scores are summed over channels per pixel first.
    The reference order: `split_cells` selects its first k positions with
    `top_positions` instead of sorting.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if image_shape is not None:
        scores = scores.reshape(*scores.shape[:-1], -1,
                                image_shape[2]).sum(axis=-1)
    return np.argsort(-scores, axis=-1, kind="stable")


def threshold_text(threshold: float) -> str:
    """A threshold as every key, name, record and report writes it."""
    return f"{threshold:.6f}"


def n_modified(threshold: float, n_positions: int) -> int:
    """ceil(t * P), guarded against float representation of t * P."""
    return math.ceil(threshold * n_positions - 1e-9)


# The keys of the rank-free cells, which replace no position or every one.
NONE_REPLACED = ("none",)
ALL_REPLACED = ("all",)


def cell_key(estimator_id: str, threshold: float, mode: str,
             n_positions: int) -> tuple[str, ...]:
    """The key a grid cell's seeds and reuse go by. A cell that replaces
    no position or every one (ROAR and KAR at t = 0, and at t = 1) trains on
    the same data whatever the ranking, so its key names only what it
    replaces, and every estimator shares it; ROAR at t = 0 and KAR at t = 1
    share NONE_REPLACED. Any other cell is ranked: (estimator, t, mode)."""
    k = n_modified(threshold, n_positions)
    if k in (0, n_positions):
        return ALL_REPLACED if (k == n_positions) == (mode == ROAR) \
            else NONE_REPLACED
    return (estimator_id, threshold_text(threshold), mode)


def replacement_matrix(dataset: ArrayDataset) -> np.ndarray:
    """(P, C) replacement values from the unmodified train split.

    Images: dataset-wide per-channel mean over all train pixels, broadcast
    over pixels. Flat data: per-feature mean (C = 1).
    """
    train_x = dataset.train_x
    if len(train_x) == 0:
        raise ValueError("empty train split")
    if dataset.image_shape is not None:
        h, w, c = dataset.image_shape
        channel_mean = train_x.reshape(-1, h * w, c).mean(axis=(0, 1))
        return np.tile(channel_mean, (h * w, 1))
    return train_x.mean(axis=0)[:, None]


def top_positions(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of each row's k highest-scoring positions, ties broken
    by ascending index: the first k of the row's `rank_features` order,
    found by selection (`np.partition`) instead of a full sort.

    `scores` are finite (rows, P) per-position scores. A row holds every
    position scored above its k-th highest value; the cumsum fix-up that
    picks the lowest-indexed positions tied at that value runs only on the
    rows where more than k positions reach it."""
    n, p = scores.shape
    if k in (0, p):
        return np.full((n, p), k == p)
    kth = np.partition(scores, p - k, axis=1)[:, p - k, None]
    top = scores >= kth
    tied = np.flatnonzero(np.count_nonzero(top, axis=1) > k)
    if len(tied):
        rows, row_kth = scores[tied], kth[tied]
        above = rows > row_kth
        at = rows == row_kth
        room = k - np.count_nonzero(above, axis=1)[:, None]
        top[tied] = above | (at & (np.cumsum(at, axis=1) <= room))
    return top


def modify_rows(x: np.ndarray, top: np.ndarray, mode: str,
                replacement: np.ndarray) -> np.ndarray:
    """Replace the `top` positions of every row of x with the (P, C)
    replacement values (ROAR), or every position but those (KAR).

    `top` is a `top_positions` mask: (n, P), one row per row of x, or
    (1, P), shared by all rows. Untouched values are bit-identical to the
    input.
    """
    p, c = replacement.shape
    replaced = top if mode == ROAR else ~top
    rows = np.asarray(x, dtype=np.float64).reshape(len(x), p, c)
    return np.where(replaced[:, :, None], replacement,
                    rows).reshape(len(x), p * c)


@dataclass
class Provenance:
    estimator_id: str
    threshold: float
    mode: str
    seed: int
    source_id: str


@dataclass
class ModifiedDataset(ArrayDataset):
    """A dataset modified at one (estimator, t, mode) cell; its image shape
    is that of the source dataset."""

    provenance: Provenance = field(kw_only=True)


def rank_split(dataset: ArrayDataset, split: str,
               scores: np.ndarray) -> np.ndarray:
    """Per-position scores of one split ("train" or "test") of dataset, the
    one place an estimator's scores are checked: per-sample score rows give
    one row per row of the split, and a single shared score vector (uniform
    ranking) gives one (1, P) row that broadcasts over the rows. Given an
    image dataset, each pixel's channel scores are summed, as
    `rank_features` sums them; with one channel the scores come back as
    they are. Non-finite scores, which no ranking orders, are refused naming
    the split and the first such sample."""
    x, image_shape = getattr(dataset, f"{split}_x"), dataset.image_shape
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[None]
    elif scores.shape[0] != len(x):
        raise ProvenanceError(
            f"have {split} scores for {scores.shape[0]} samples, dataset has "
            f"{len(x)}; first missing sample is {min(scores.shape[0], len(x))}")
    if image_shape is not None and image_shape[2] > 1:
        scores = scores.reshape(len(scores), -1, image_shape[2]).sum(axis=-1)
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite {split} scores at sample "
                         f"{np.flatnonzero(~finite)[0]}")
    return scores


def split_cells(dataset: ArrayDataset, split: str, scores: np.ndarray,
                replacement: np.ndarray):
    """`cell(threshold, mode)`: the rows of one split ("train" or "test")
    modified at that cell under one estimator's scores. Every modified
    split is built here: the scores are checked once (`rank_split`), the
    replacement once (finite, one row per position), and each cell's
    threshold and mode as it is asked for. Cells asked for in a row that
    replace the same count share one `top_positions` selection."""
    x = getattr(dataset, f"{split}_x")
    scores = rank_split(dataset, split, scores)
    p = len(replacement)
    if scores.shape[1] != p:
        raise ValueError(f"scores for {scores.shape[1]} positions; the "
                         f"replacement has {p}")
    if not np.all(np.isfinite(replacement)):
        raise ValueError("non-finite replacement values")
    last = [None, None]  # the count selected last, and its mask

    def cell(threshold: float, mode: str) -> np.ndarray:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        if mode not in (ROAR, KAR):
            raise ValueError(f"unknown mode {mode!r}")
        k = n_modified(threshold, p)
        if k != last[0]:
            last[:] = k, top_positions(scores, k)
        return modify_rows(x, last[1], mode, replacement)
    return cell


def generate_modified_datasets(dataset: ArrayDataset,
                               estimates: dict[str, tuple[np.ndarray, np.ndarray]],
                               thresholds, modes=(ROAR,),
                               source_id: str = "dataset", seed: int = 0
                               ) -> Iterator[ModifiedDataset]:
    """Yield one ModifiedDataset per (estimator, threshold, mode), one at a
    time, so callers can persist each before the next is built, each
    split modified through `split_cells`; `seed` is the config seed
    provenance records."""
    replacement = replacement_matrix(dataset)
    for estimator_id, (train_scores, test_scores) in estimates.items():
        train_cell = split_cells(dataset, "train", train_scores, replacement)
        test_cell = split_cells(dataset, "test", test_scores, replacement)
        for threshold in thresholds:
            for mode in modes:
                yield ModifiedDataset(
                    train_cell(threshold, mode), dataset.train_y.copy(),
                    test_cell(threshold, mode), dataset.test_y.copy(),
                    dataset.image_shape,
                    provenance=Provenance(estimator_id, threshold, mode, seed,
                                          source_id))


def make_modified_dataset(dataset: ArrayDataset, train_scores: np.ndarray,
                          test_scores: np.ndarray, estimator_id: str,
                          threshold: float, mode: str, seed: int = 0,
                          source_id: str = "dataset") -> ModifiedDataset:
    """Modify both train and test splits at one (estimator, t, mode) cell:
    the one-cell grid of `generate_modified_datasets`."""
    return next(generate_modified_datasets(
        dataset, {estimator_id: (train_scores, test_scores)}, [threshold],
        (mode,), source_id, seed))


def cell_name(estimator_id: str, threshold: float, mode: str) -> str:
    """File-system name of one grid cell; thresholds keep the 6 decimals
    records carry, so distinct configured thresholds never share a name."""
    return f"{estimator_id}_t{threshold_text(threshold)}_{mode}"


# ---------------------------------------------------------------------------
# Result grid

@dataclass
class Record:
    estimator_id: str
    threshold: float
    mode: str
    run_index: int
    accuracy: float


@dataclass
class CellFailure:
    estimator_id: str
    threshold: float
    mode: str
    run_index: int
    reason: str  # failed:<step at which the run's loss turned non-finite>


def row_key(estimator_id: str, threshold: float, mode: str,
            run_index: int) -> str:
    """The first four fields of a row: the run of the grid it records."""
    return f"{estimator_id},{threshold_text(threshold)},{mode},{run_index}"


def record_row(entry: Record | CellFailure) -> str:
    """The CSV row of a record, or of a failure, whose accuracy column holds
    its reason; results.csv and the grid's fragments both use it."""
    outcome = (entry.reason if isinstance(entry, CellFailure)
               else f"{entry.accuracy:.10f}")
    return (row_key(entry.estimator_id, entry.threshold, entry.mode,
                    entry.run_index) + f",{outcome}")


def parse_row(row: str) -> Record | CellFailure:
    """Inverse of record_row; ValueError on a malformed row, or on an
    outcome that is neither `failed:<step>` nor an accuracy in [0, 1]."""
    estimator_id, threshold, mode, run, outcome = row.split(",")
    key = (estimator_id, float(threshold), mode, int(run))
    if re.fullmatch(r"failed:[0-9]+", outcome):
        return CellFailure(*key, outcome)
    accuracy = float(outcome)
    if not 0.0 <= accuracy <= 1.0:  # also false for nan
        raise ValueError(f"accuracy {outcome} outside [0, 1]")
    return Record(*key, accuracy)


@dataclass
class ResultGrid:
    entries: list[Record | CellFailure] = field(default_factory=list)

    @property
    def records(self) -> list[Record]:
        return [e for e in self.entries if isinstance(e, Record)]

    @property
    def failures(self) -> list[CellFailure]:
        return [e for e in self.entries if isinstance(e, CellFailure)]

    def add(self, entry: Record | CellFailure):
        self.entries.append(entry)

    def sorted_records(self) -> list[Record]:
        return sorted(self.records, key=lambda r: (
            r.estimator_id, r.threshold, r.mode, r.run_index))

    def aggregate(self) -> list[tuple[str, float, str, float, float]]:
        """Mean/std accuracy per (estimator, threshold, mode), sorted."""
        cells: dict[tuple, list[float]] = {}
        for r in self.sorted_records():
            cells.setdefault((r.estimator_id, r.threshold, r.mode),
                             []).append(r.accuracy)
        return [(e, t, m, float(np.mean(v)), float(np.std(v)))
                for (e, t, m), v in sorted(cells.items())]

    def to_csv(self, path: str):
        lines = ["estimator,threshold,mode,run,accuracy"]
        lines += map(record_row, self.sorted_records())
        _atomic_write_text(path, "\n".join(lines) + "\n")

    def aggregated_to_csv(self, path: str):
        lines = ["estimator,threshold,mode,mean_accuracy,std_accuracy"]
        for e, t, m, mean, std in self.aggregate():
            lines.append(
                f"{e},{threshold_text(t)},{m},{mean:.10f},{std:.10f}")
        _atomic_write_text(path, "\n".join(lines) + "\n")


def _atomic_write_text(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


# Bytes of train splits, in the training dtype, one trainer call stacks at
# most; at MNIST scale (60,000 x 784 float32 rows) each cell is a call of its
# own.
STACK_BYTES = 1 << 28


def run_roar(dataset: ArrayDataset,
             estimates: dict[str, tuple[np.ndarray, np.ndarray]],
             thresholds, trainer: TrainerFn, runs_per_point: int = 5,
             modes=(ROAR,), base_seed: int = 0,
             shared: dict | None = None) -> ResultGrid:
    """Retrain `runs_per_point` fresh models per grid cell on modified data;
    the grid holds the runs in grid order (estimator, threshold, mode, run).

    Per estimator, each split is modified through `split_cells`, and each
    `cell_key` not yet trained goes to the trainer in one DatasetStack per
    STACK_BYTES of train splits, which modifies a cell's splits as it builds
    them. Rank-free keys train once per `shared` dict, which holds their
    results: a caller that splits one grid over several calls passes each
    the same dict.

    Diverged runs are recorded as failures and the grid run continues.
    """
    if runs_per_point < 1:
        raise ValueError("runs_per_point must be >= 1")
    shared = {} if shared is None else shared
    grid = ResultGrid()
    replacement = replacement_matrix(dataset)
    cells = [(t, mode) for t in thresholds for mode in modes]
    split_bytes = np.dtype(TRAIN_DTYPE).itemsize * dataset.train_x.size
    per_call = max(1, STACK_BYTES // max(1, split_bytes))
    for estimator_id, (train_scores, test_scores) in estimates.items():
        train_cell = split_cells(dataset, "train", train_scores, replacement)
        test_cell = split_cells(dataset, "test", test_scores, replacement)
        keys = [cell_key(estimator_id, t, mode, len(replacement))
                for t, mode in cells]
        results = {key: shared[key] for key in keys if key in shared}
        todo = [(key, cell) for i, (key, cell) in enumerate(zip(keys, cells))
                if key not in results and keys.index(key) == i]
        for start in range(0, len(todo), per_call):
            chunk = todo[start:start + per_call]
            stack = DatasetStack(
                len(chunk), dataset.n_features,
                lambda c: train_cell(*chunk[c][1]), dataset.train_y,
                lambda c: test_cell(*chunk[c][1]), dataset.test_y)
            results.update(zip([key for key, _ in chunk], trainer(stack, [
                run_seeds(base_seed, key, runs_per_point)
                for key, _ in chunk])))
        shared.update((key, results[key]) for key in
                      (NONE_REPLACED, ALL_REPLACED) if key in results)
        for (threshold, mode), key in zip(cells, keys):
            for run, result in enumerate(results[key]):
                entry = (estimator_id, threshold, mode, run)
                grid.add(CellFailure(*entry, f"failed:{result.step}")
                         if isinstance(result, TrainingDivergedError)
                         else Record(*entry, result[1]))
    return grid


def run_deletion_metric(dataset: ArrayDataset, original_model: Model,
                        test_estimates: Iterable[tuple[str, np.ndarray]],
                        thresholds) -> ResultGrid:
    """Score removal-modified TEST sets, modified through `split_cells`,
    with the frozen original model, from (estimator_id, test-split scores)
    pairs; a generator of pairs lets the caller score one estimator at a
    time."""
    grid = ResultGrid()
    replacement = replacement_matrix(dataset)
    for estimator_id, test_scores in test_estimates:
        test_cell = split_cells(dataset, "test", test_scores, replacement)
        for threshold in thresholds:
            acc = accuracy(original_model, test_cell(threshold, ROAR),
                           dataset.test_y)
            grid.add(Record(estimator_id, threshold, ROAR, 0, acc))
    return grid


# ---------------------------------------------------------------------------
# Modified-dataset persistence: a cell is saved as its recipe, a plain-text
# manifest with its provenance, shapes and the sha256 of the cell as built.
# The config and estimates of its output directory rebuild it.

def _manifest(modified: ModifiedDataset) -> dict[str, str]:
    """The manifest of a built cell, key by key in file order."""
    p = modified.provenance
    shape = modified.image_shape
    digest = hashlib.sha256()
    for array, dtype in ((modified.train_x, "<f8"), (modified.train_y, "<i8"),
                         (modified.test_x, "<f8"), (modified.test_y, "<i8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype))
    return {"estimator_id": p.estimator_id,
            "threshold": threshold_text(p.threshold), "mode": p.mode,
            "seed": str(p.seed), "source_id": p.source_id,
            "train_shape": "{}x{}".format(*modified.train_x.shape),
            "test_shape": "{}x{}".format(*modified.test_x.shape),
            "image_shape": ("none" if shape is None
                            else "x".join(map(str, shape))),
            "sha256_cell": digest.hexdigest()}


def save_modified_dataset(modified: ModifiedDataset, directory: str):
    """Write the cell's manifest, through a temporary file and a rename."""
    os.makedirs(directory, exist_ok=True)
    _atomic_write_text(os.path.join(directory, "manifest.txt"), "".join(
        f"{key}={value}\n" for key, value in _manifest(modified).items()))


# The form of each value a manifest must hold.
_MANIFEST_FORMS = {
    "estimator_id": r".+", "threshold": r"0\.\d+|1\.0+",
    "mode": f"{ROAR}|{KAR}", "seed": r"\d+", "source_id": r".+",
    "train_shape": r"\d+x\d+", "test_shape": r"\d+x\d+",
    "image_shape": r"none|[1-9]\d*x[1-9]\d*x[1-9]\d*",
    "sha256_cell": r"[0-9a-f]{64}"}


def load_modified_dataset(directory: str) -> ModifiedDataset:
    """Rebuild a saved cell from `<directory>/../../config.ini` and that
    output directory's `estimates/<estimator_id>.npz`. A malformed manifest,
    a missing or unparsable config, an (estimator id, threshold, mode) that
    is not a cell of that config, and a manifest value that differs from
    the rebuilt cell's (another seed, shape or digest) are refused by name.
    The cell comes back as built, with float64 features."""
    from . import config, experiment  # both import this module

    manifest_path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise ProvenanceError(f"missing manifest in {directory}")
    meta = {}
    with open(manifest_path) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            meta[key] = value
    # A manifest of an earlier layout has no sha256_cell; any other missing
    # or malformed value is refused by name.
    for key, form in _MANIFEST_FORMS.items():
        if key not in meta:
            raise ProvenanceError(f"manifest in {directory} has no {key}")
        if not re.fullmatch(form, meta[key]):
            raise ProvenanceError(f"manifest in {directory}: {key} is "
                                  f"{meta[key]!r}, not of the form {form}")
    output = os.path.normpath(os.path.join(directory, os.pardir, os.pardir))
    config_path = os.path.join(output, "config.ini")
    try:
        with open(config_path) as f:
            cfg = config.parse_config(f.read())
    except (OSError, config.ConfigError) as err:
        raise ProvenanceError(
            f"cannot rebuild {directory} from {config_path}: "
            f"{type(err).__name__}: {err}") from None
    thresholds = {threshold_text(t): t for t in cfg.thresholds}
    for key, cells in (("estimator_id", cfg.estimators.ids),
                       ("threshold", thresholds), ("mode", cfg.modes)):
        if meta[key] not in cells:
            raise ProvenanceError(
                f"manifest in {directory}: {key} {meta[key]!r} names no "
                f"cell of {config_path}")
    ctx = experiment.build_context(cfg)
    scores = experiment.load_estimate(
        ctx, os.path.join(output, "estimates"), meta["estimator_id"])
    cell = make_modified_dataset(ctx.dataset, *scores, meta["estimator_id"],
                                 thresholds[meta["threshold"]], meta["mode"],
                                 cfg.seed, cfg.dataset.kind)
    for key, value in _manifest(cell).items():
        if meta[key] != value:
            raise ProvenanceError(
                f"manifest in {directory}: {key} is {meta[key]!r}, but the "
                f"cell rebuilt from {output}'s config and estimates has "
                f"{value!r}")
    return cell


def ranking_to_scores(order: np.ndarray) -> np.ndarray:
    """Score vector whose stable descending sort reproduces `order`."""
    p = len(order)
    scores = np.empty(p, dtype=np.float64)
    scores[np.asarray(order)] = np.arange(p, 0, -1, dtype=np.float64)
    return scores
