"""Remove-and-retrain engine: per-sample rankings, batched dataset
modification at a threshold grid, repeated retraining, the no-retrain
deletion metric, and the accuracy result grid with CSV export."""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .nn import (ArrayDataset, DatasetStack, Model, TrainerFn,
                 TrainingDivergedError, accuracy)

ROAR = "roar"
KAR = "kar"

FEATURE = "feature"
PIXEL = "pixel"


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


def rank_features(scores: np.ndarray, granularity: str = FEATURE,
                  image_shape: tuple[int, int, int] | None = None) -> np.ndarray:
    """Descending ranking along the last axis of (..., d) flat scores; ties
    break by ascending index.

    Pixel granularity sums scores over channels per pixel first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if granularity == PIXEL:
        if image_shape is None:
            raise ValueError("pixel granularity requires image_shape")
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


def replacement_matrix(train_x: np.ndarray,
                       image_shape: tuple[int, int, int] | None = None
                       ) -> np.ndarray:
    """(P, C) replacement values from the unmodified train split.

    Images: dataset-wide per-channel mean over all train pixels, broadcast
    over pixels. Flat data: per-feature mean (C = 1).
    """
    if len(train_x) == 0:
        raise ValueError("empty train split")
    if image_shape is not None:
        h, w, c = image_shape
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

    def as_dataset(self) -> ArrayDataset:
        return ArrayDataset(self.train_x, self.train_y,
                            self.test_x, self.test_y)


def broadcast_scores(scores: np.ndarray, n_samples: int) -> np.ndarray:
    """Accept per-sample score rows, or a single shared score vector
    (uniform ranking), which becomes one (1, d) row that broadcasts over the
    samples."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        return scores[None]
    if scores.shape[0] != n_samples:
        raise ProvenanceError(
            f"have scores for {scores.shape[0]} samples, dataset has "
            f"{n_samples}; first missing sample is {min(scores.shape[0], n_samples)}")
    return scores


def make_modified_dataset(dataset: ArrayDataset, train_scores: np.ndarray,
                          test_scores: np.ndarray, estimator_id: str,
                          threshold: float, mode: str, seed: int = 0,
                          source_id: str = "dataset",
                          granularity: str = FEATURE,
                          image_shape=None) -> ModifiedDataset:
    """Modify both train and test splits at one (estimator, t, mode) cell."""
    spec = ModificationSpec(threshold, mode,
                            replacement_matrix(dataset.train_x, image_shape))

    def modify(x, scores):
        rankings = rank_features(broadcast_scores(scores, len(x)),
                                 granularity, image_shape)
        return modify_rows(x, rankings, spec)

    return ModifiedDataset(
        train_x=modify(dataset.train_x, train_scores),
        train_y=dataset.train_y.copy(),
        test_x=modify(dataset.test_x, test_scores),
        test_y=dataset.test_y.copy(),
        provenance=Provenance(estimator_id, threshold, mode, seed, source_id),
    )


def generate_modified_datasets(dataset: ArrayDataset,
                               estimates: dict[str, tuple[np.ndarray, np.ndarray]],
                               thresholds, modes=(ROAR,),
                               granularity: str = FEATURE,
                               image_shape=None,
                               source_id: str = "dataset"
                               ) -> Iterator[ModifiedDataset]:
    """Yield one ModifiedDataset per (estimator, threshold, mode), one at a
    time, so callers can persist each before the next is built."""
    for estimator_id, (train_scores, test_scores) in estimates.items():
        for threshold in thresholds:
            for mode in modes:
                yield make_modified_dataset(
                    dataset, train_scores, test_scores, estimator_id,
                    threshold, mode, source_id=source_id,
                    granularity=granularity, image_shape=image_shape)


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
    reason: str


@dataclass
class ResultGrid:
    records: list[Record] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)

    def add(self, record: Record):
        self.records.append(record)

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
        for r in self.sorted_records():
            lines.append(f"{r.estimator_id},{r.threshold:.6f},{r.mode},"
                         f"{r.run_index},{r.accuracy:.10f}")
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


# Train splits one trainer call stacks at most; at MNIST scale (60,000 x 784
# float64 rows) each cell is a call of its own.
STACK_BYTES = 1 << 28


def retrain_estimator(dataset: ArrayDataset, replacement: np.ndarray,
                      train_scores: np.ndarray, test_scores: np.ndarray,
                      estimator_id: str, cells, trainer: TrainerFn,
                      base_seed: int, runs_per_point: int,
                      granularity: str = FEATURE,
                      image_shape=None) -> list[list]:
    """Retrain `runs_per_point` fresh models at each (threshold, mode) cell
    of one estimator, and return each cell's run results, in order.

    Each split is ranked once, and the cells go to the trainer as one
    DatasetStack (one per STACK_BYTES of train splits); a cell's splits are
    modified, with `replacement_matrix(dataset.train_x, ...)` values, when
    the trainer builds them.
    """
    train_rank, test_rank = (
        rank_features(broadcast_scores(scores, len(x)), granularity,
                      image_shape)
        for scores, x in ((train_scores, dataset.train_x),
                          (test_scores, dataset.test_x)))
    specs = [ModificationSpec(t, mode, replacement) for t, mode in cells]
    per_call = max(1, STACK_BYTES // max(1, 8 * dataset.train_x.size))
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
             modes=(ROAR,), base_seed: int = 0, granularity: str = FEATURE,
             image_shape=None) -> ResultGrid:
    """Retrain `runs_per_point` fresh models per grid cell on modified data,
    one `retrain_estimator` stack per estimator.

    Diverged runs are recorded as failures and the grid run continues.
    """
    if runs_per_point < 1:
        raise ValueError("runs_per_point must be >= 1")
    grid = ResultGrid()
    replacement = replacement_matrix(dataset.train_x, image_shape)
    cells = [(t, mode) for t in thresholds for mode in modes]
    for estimator_id, (train_scores, test_scores) in estimates.items():
        results = retrain_estimator(
            dataset, replacement, train_scores, test_scores, estimator_id,
            cells, trainer, base_seed, runs_per_point, granularity,
            image_shape)
        for (threshold, mode), cell_results in zip(cells, results):
            for run, result in enumerate(cell_results):
                if isinstance(result, TrainingDivergedError):
                    grid.failures.append(CellFailure(
                        estimator_id, threshold, mode, run, str(result)))
                else:
                    grid.add(Record(estimator_id, threshold, mode, run,
                                    result[1]))
    return grid


def run_deletion_metric(dataset: ArrayDataset, original_model: Model,
                        estimates: dict[str, tuple[np.ndarray, np.ndarray]],
                        thresholds, granularity: str = FEATURE,
                        image_shape=None) -> ResultGrid:
    """Score removal-modified TEST sets with the frozen original model."""
    grid = ResultGrid()
    replacement = replacement_matrix(dataset.train_x, image_shape)
    for estimator_id, (_, test_scores) in estimates.items():
        rankings = rank_features(
            broadcast_scores(test_scores, len(dataset.test_x)), granularity,
            image_shape)
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
    n_train, d = map(int, meta["train_shape"].split("x"))
    n_test, _ = map(int, meta["test_shape"].split("x"))

    def read_part(name, dtype, shape):
        path = os.path.join(directory, name)
        with open(path, "rb") as f:
            data = f.read()
        expected = meta.get(f"sha256_{name}")
        if expected != _sha256(data):
            raise ProvenanceError(f"checksum mismatch for {path}")
        return np.frombuffer(data, dtype=dtype).reshape(shape).astype(np.float64)

    return ModifiedDataset(
        train_x=read_part("train_features.f32", "<f4", (n_train, d)),
        train_y=read_part("train_labels.i64", "<i8", (n_train,)).astype(np.int64),
        test_x=read_part("test_features.f32", "<f4", (n_test, d)),
        test_y=read_part("test_labels.i64", "<i8", (n_test,)).astype(np.int64),
        provenance=Provenance(meta["estimator_id"], float(meta["threshold"]),
                              meta["mode"], int(meta["seed"]),
                              meta["source_id"]),
    )


def ranking_to_scores(order: np.ndarray) -> np.ndarray:
    """Score vector whose stable descending sort reproduces `order`."""
    p = len(order)
    scores = np.empty(p, dtype=np.float64)
    scores[np.asarray(order)] = np.arange(p, 0, -1, dtype=np.float64)
    return scores
