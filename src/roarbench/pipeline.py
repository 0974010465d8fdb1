"""Remove-and-retrain engine: per-sample rankings, batched dataset
modification at a threshold grid, repeated retraining, the no-retrain
deletion metric, and the accuracy result grid with CSV export."""

from __future__ import annotations

import hashlib
import math
import os
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


def run_seeds(base_seed: int, estimator_id: str, threshold: float, mode: str,
              runs_per_point: int) -> list[int]:
    """The seeds of one grid cell's retraining runs, run index order."""
    return [derive_seed(base_seed, estimator_id, f"{threshold:.6f}", mode, run)
            for run in range(runs_per_point)]


def rank_features(scores: np.ndarray,
                  image_shape: tuple[int, int, int] | None = None) -> np.ndarray:
    """Descending ranking along the last axis of (..., d) flat scores; ties
    break by ascending index.

    Given an image_shape, scores are summed over channels per pixel first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if image_shape is not None:
        scores = scores.reshape(*scores.shape[:-1], -1,
                                image_shape[2]).sum(axis=-1)
    return np.argsort(-scores, axis=-1, kind="stable")


def n_modified(threshold: float, n_positions: int) -> int:
    """ceil(t * P), guarded against float representation of t * P."""
    return math.ceil(threshold * n_positions - 1e-9)


@dataclass
class ModificationSpec:
    threshold: float
    mode: str  # ROAR | KAR
    replacement: np.ndarray  # (P, C) replacement values

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")
        if self.mode not in (ROAR, KAR):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not np.all(np.isfinite(self.replacement)):
            raise ValueError("non-finite replacement values")


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


def modify_rows(x: np.ndarray, rankings: np.ndarray,
                spec: ModificationSpec) -> np.ndarray:
    """Replace ranked positions of every row of x with the replacement values.

    `rankings` is (n, P), one ranking per row, or (1, P), shared by all rows.
    ROAR replaces the top ceil(t*P) positions; KAR replaces everything except
    the top ceil(t*P). Untouched values are bit-identical to the input.
    """
    p, c = spec.replacement.shape
    if rankings.shape[1] != p:
        raise ValueError(
            f"ranking length {rankings.shape[1]} != positions {p}")
    top = np.zeros(rankings.shape, dtype=bool)
    np.put_along_axis(top, rankings[:, :n_modified(spec.threshold, p)], True,
                      axis=1)
    replaced = top if spec.mode == ROAR else ~top
    rows = np.asarray(x, dtype=np.float64).reshape(len(x), p, c)
    return np.where(replaced[:, :, None], spec.replacement,
                    rows).reshape(len(x), p * c)


def modify_sample(x: np.ndarray, ranking: np.ndarray,
                  spec: ModificationSpec) -> np.ndarray:
    """One-row case of modify_rows."""
    x = np.asarray(x, dtype=np.float64)
    return modify_rows(x.reshape(1, -1), np.asarray(ranking).reshape(1, -1),
                       spec).reshape(x.shape)


@dataclass
class Provenance:
    estimator_id: str
    threshold: float
    mode: str
    seed: int
    source_id: str


@dataclass
class ModifiedDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    provenance: Provenance
    image_shape: tuple[int, int, int] | None  # that of the source dataset

    def as_dataset(self) -> ArrayDataset:
        return ArrayDataset(self.train_x, self.train_y,
                            self.test_x, self.test_y, self.image_shape)


def rank_split(scores: np.ndarray, x: np.ndarray,
               image_shape=None) -> np.ndarray:
    """Rankings of one split, the one place an estimator's scores are
    checked and ranked: per-sample score rows give one ranking per row of
    x, and a single shared score vector (uniform ranking) gives one (1, P)
    ranking that broadcasts over the rows."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[None]
    elif scores.shape[0] != len(x):
        raise ProvenanceError(
            f"have scores for {scores.shape[0]} samples, dataset has "
            f"{len(x)}; first missing sample is {min(scores.shape[0], len(x))}")
    return rank_features(scores, image_shape)


def make_modified_dataset(dataset: ArrayDataset, train_scores: np.ndarray,
                          test_scores: np.ndarray, estimator_id: str,
                          threshold: float, mode: str, seed: int = 0,
                          source_id: str = "dataset") -> ModifiedDataset:
    """Modify both train and test splits at one (estimator, t, mode) cell."""
    spec = ModificationSpec(threshold, mode, replacement_matrix(dataset))

    def modify(x, scores):
        return modify_rows(x, rank_split(scores, x, dataset.image_shape), spec)

    return ModifiedDataset(
        train_x=modify(dataset.train_x, train_scores),
        train_y=dataset.train_y.copy(),
        test_x=modify(dataset.test_x, test_scores),
        test_y=dataset.test_y.copy(),
        provenance=Provenance(estimator_id, threshold, mode, seed, source_id),
        image_shape=dataset.image_shape,
    )


def generate_modified_datasets(dataset: ArrayDataset,
                               estimates: dict[str, tuple[np.ndarray, np.ndarray]],
                               thresholds, modes=(ROAR,),
                               source_id: str = "dataset"
                               ) -> Iterator[ModifiedDataset]:
    """Yield one ModifiedDataset per (estimator, threshold, mode), one at a
    time, so callers can persist each before the next is built. Each split
    is ranked once per estimator."""
    replacement = replacement_matrix(dataset)
    shape = dataset.image_shape
    for estimator_id, (train_scores, test_scores) in estimates.items():
        train_rank = rank_split(train_scores, dataset.train_x, shape)
        test_rank = rank_split(test_scores, dataset.test_x, shape)
        for threshold in thresholds:
            for mode in modes:
                spec = ModificationSpec(threshold, mode, replacement)
                yield ModifiedDataset(
                    modify_rows(dataset.train_x, train_rank, spec),
                    dataset.train_y.copy(),
                    modify_rows(dataset.test_x, test_rank, spec),
                    dataset.test_y.copy(),
                    Provenance(estimator_id, threshold, mode, 0, source_id),
                    shape)


def cell_name(estimator_id: str, threshold: float, mode: str) -> str:
    """File-system name of one grid cell; thresholds keep the 6 decimals
    records carry, so distinct configured thresholds never share a name."""
    return f"{estimator_id}_t{threshold:.6f}_{mode}"


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
    return f"{estimator_id},{threshold:.6f},{mode},{run_index}"


def record_row(entry: Record | CellFailure) -> str:
    """The CSV row of a record, or of a failure, whose accuracy column holds
    its reason; results.csv and the grid's fragments both use it."""
    outcome = (entry.reason if isinstance(entry, CellFailure)
               else f"{entry.accuracy:.10f}")
    return (row_key(entry.estimator_id, entry.threshold, entry.mode,
                    entry.run_index) + f",{outcome}")


def parse_row(row: str) -> Record | CellFailure:
    """Inverse of record_row; ValueError on a malformed row."""
    estimator_id, threshold, mode, run, outcome = row.split(",")
    key = (estimator_id, float(threshold), mode, int(run))
    return (CellFailure(*key, outcome) if outcome.startswith("failed:")
            else Record(*key, float(outcome)))


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
            lines.append(f"{e},{t:.6f},{m},{mean:.10f},{std:.10f}")
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


def retrain_estimator(dataset: ArrayDataset, replacement: np.ndarray,
                      train_scores: np.ndarray, test_scores: np.ndarray,
                      estimator_id: str, cells, trainer: TrainerFn,
                      base_seed: int, runs_per_point: int) -> list[list]:
    """Retrain `runs_per_point` fresh models at each (threshold, mode) cell
    of one estimator, and return each cell's run results, in order.

    Each split is ranked once, and the cells go to the trainer as one
    DatasetStack (one per STACK_BYTES of train splits); a cell's splits are
    modified, with `replacement_matrix(dataset)` values, when the trainer
    builds them.
    """
    train_rank = rank_split(train_scores, dataset.train_x, dataset.image_shape)
    test_rank = rank_split(test_scores, dataset.test_x, dataset.image_shape)
    specs = [ModificationSpec(t, mode, replacement) for t, mode in cells]
    split_bytes = np.dtype(TRAIN_DTYPE).itemsize * dataset.train_x.size
    per_call = max(1, STACK_BYTES // max(1, split_bytes))
    results = []
    for start in range(0, len(specs), per_call):
        chunk = specs[start:start + per_call]
        stack = DatasetStack(
            len(chunk), dataset.n_features,
            lambda c: modify_rows(dataset.train_x, train_rank, chunk[c]),
            dataset.train_y,
            lambda c: modify_rows(dataset.test_x, test_rank, chunk[c]),
            dataset.test_y)
        results += trainer(stack, [
            run_seeds(base_seed, estimator_id, spec.threshold, spec.mode,
                      runs_per_point) for spec in chunk])
    return results


def run_roar(dataset: ArrayDataset,
             estimates: dict[str, tuple[np.ndarray, np.ndarray]],
             thresholds, trainer: TrainerFn, runs_per_point: int = 5,
             modes=(ROAR,), base_seed: int = 0) -> ResultGrid:
    """Retrain `runs_per_point` fresh models per grid cell on modified data,
    one `retrain_estimator` stack per estimator; the grid holds the runs in
    grid order (estimator, threshold, mode, run).

    Diverged runs are recorded as failures and the grid run continues.
    """
    if runs_per_point < 1:
        raise ValueError("runs_per_point must be >= 1")
    grid = ResultGrid()
    replacement = replacement_matrix(dataset)
    cells = [(t, mode) for t in thresholds for mode in modes]
    for estimator_id, (train_scores, test_scores) in estimates.items():
        results = retrain_estimator(
            dataset, replacement, train_scores, test_scores, estimator_id,
            cells, trainer, base_seed, runs_per_point)
        for (threshold, mode), cell_results in zip(cells, results):
            for run, result in enumerate(cell_results):
                key = (estimator_id, threshold, mode, run)
                grid.add(CellFailure(*key, f"failed:{result.step}")
                         if isinstance(result, TrainingDivergedError)
                         else Record(*key, result[1]))
    return grid


def run_deletion_metric(dataset: ArrayDataset, original_model: Model,
                        test_estimates: Iterable[tuple[str, np.ndarray]],
                        thresholds) -> ResultGrid:
    """Score removal-modified TEST sets with the frozen original model, from
    (estimator_id, test-split scores) pairs; a generator of pairs lets the
    caller score one estimator at a time."""
    grid = ResultGrid()
    replacement = replacement_matrix(dataset)
    for estimator_id, test_scores in test_estimates:
        rankings = rank_split(test_scores, dataset.test_x,
                              dataset.image_shape)
        for threshold in thresholds:
            spec = ModificationSpec(threshold, ROAR, replacement)
            test_x = modify_rows(dataset.test_x, rankings, spec)
            acc = accuracy(original_model, test_x, dataset.test_y)
            grid.add(Record(estimator_id, threshold, ROAR, 0, acc))
    return grid


# ---------------------------------------------------------------------------
# Modified-dataset persistence: flat little-endian float32 features, int64
# labels, and a plain-text manifest with provenance, shapes, and checksums.

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_modified_dataset(modified: ModifiedDataset, directory: str):
    os.makedirs(directory, exist_ok=True)
    parts = {
        "train_features.f32": modified.train_x.astype("<f4").tobytes(),
        "train_labels.i64": modified.train_y.astype("<i8").tobytes(),
        "test_features.f32": modified.test_x.astype("<f4").tobytes(),
        "test_labels.i64": modified.test_y.astype("<i8").tobytes(),
    }
    lines = []
    p = modified.provenance
    lines.append(f"estimator_id={p.estimator_id}")
    lines.append(f"threshold={p.threshold:.6f}")
    lines.append(f"mode={p.mode}")
    lines.append(f"seed={p.seed}")
    lines.append(f"source_id={p.source_id}")
    lines.append(f"train_shape={modified.train_x.shape[0]}x{modified.train_x.shape[1]}")
    lines.append(f"test_shape={modified.test_x.shape[0]}x{modified.test_x.shape[1]}")
    shape = modified.image_shape
    lines.append("image_shape=" + ("none" if shape is None
                                   else "x".join(map(str, shape))))
    for name, data in parts.items():
        tmp = os.path.join(directory, name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, os.path.join(directory, name))
        lines.append(f"sha256_{name}={_sha256(data)}")
    _atomic_write_text(os.path.join(directory, "manifest.txt"),
                       "\n".join(lines) + "\n")


def load_modified_dataset(directory: str) -> ModifiedDataset:
    manifest_path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise ProvenanceError(f"missing manifest in {directory}")
    meta = {}
    with open(manifest_path) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            meta[key] = value
    if "image_shape" not in meta:
        raise ProvenanceError(f"manifest in {directory} has no image_shape")
    n_train, d = map(int, meta["train_shape"].split("x"))
    n_test, _ = map(int, meta["test_shape"].split("x"))

    def read_part(name, dtype, shape):
        path = os.path.join(directory, name)
        with open(path, "rb") as f:
            data = f.read()
        expected = meta.get(f"sha256_{name}")
        if expected != _sha256(data):
            raise ProvenanceError(f"checksum mismatch for {path}")
        return np.frombuffer(data, dtype=dtype).reshape(shape)

    return ModifiedDataset(
        train_x=read_part("train_features.f32", "<f4",
                          (n_train, d)).astype(np.float64),
        train_y=read_part("train_labels.i64", "<i8", (n_train,)).astype(np.int64),
        test_x=read_part("test_features.f32", "<f4",
                         (n_test, d)).astype(np.float64),
        test_y=read_part("test_labels.i64", "<i8", (n_test,)).astype(np.int64),
        provenance=Provenance(meta["estimator_id"], float(meta["threshold"]),
                              meta["mode"], int(meta["seed"]),
                              meta["source_id"]),
        image_shape=(None if meta["image_shape"] == "none" else
                     tuple(map(int, meta["image_shape"].split("x")))),
    )


def ranking_to_scores(order: np.ndarray) -> np.ndarray:
    """Score vector whose stable descending sort reproduces `order`."""
    p = len(order)
    scores = np.empty(p, dtype=np.float64)
    scores[np.asarray(order)] = np.arange(p, 0, -1, dtype=np.float64)
    return scores
