"""Experiment configuration: a small sectioned key=value text format with
strict unknown-key errors, defaults echoed on serialization, and round-trip
parse/serialize stability."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .estimators import all_estimator_ids


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSpec:
    kind: str = "toy"  # toy | bars | idx
    n_train: int = 10_000
    n_test: int = 2_000
    dim: int = 16
    n_informative: int = 4
    size: int = 12
    noise: float = 0.1
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""


@dataclass
class EstimatorSpec:
    ids: list[str] = field(default_factory=list)
    ig_steps: int = 25
    ensemble_samples: int = 15
    noise_stddev: str = "auto"  # "auto" = 0.15 * input range, else a float


@dataclass
class TrainSpec:
    model: str = "mlp"  # mlp | least_squares
    hidden: list[int] = field(default_factory=lambda: [32])
    learning_rate: float = 0.05
    steps: int = 500
    batch_size: int = 32
    loss: str = "softmax_cross_entropy"
    ridge: float = 1e-8


@dataclass
class ExperimentConfig:
    seed: int = 0
    output: str = "results"
    runs_per_point: int = 5
    thresholds: list[float] = field(
        default_factory=lambda: [0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
    modes: list[str] = field(default_factory=lambda: ["roar"])
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    estimators: EstimatorSpec = field(default_factory=EstimatorSpec)
    train: TrainSpec = field(default_factory=TrainSpec)


_DATASET_KEYS = {
    "toy": {"kind", "n_train", "n_test", "dim", "n_informative"},
    "bars": {"kind", "n_train", "n_test", "size", "noise"},
    "idx": {"kind", "train_images", "train_labels", "test_images",
            "test_labels"},
}

_SECTION_KEYS = {
    "experiment": {"seed", "output", "runs_per_point", "thresholds", "modes",
                   "workers"},
    "dataset": set().union(*_DATASET_KEYS.values()),
    "estimators": {"ids", "ig_steps", "ensemble_samples", "noise_stddev"},
    "train": {"model", "hidden", "learning_rate", "steps", "batch_size",
              "loss", "ridge"},
}


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in "
                              f"section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _convert(value: str, lineno: int, key: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed value for '{key}': "
                          f"{value!r}") from None


def _csv_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    cfg = ExperimentConfig()

    exp = sections.get("experiment", {})
    for key, (value, ln) in exp.items():
        if key == "seed":
            cfg.seed = _convert(value, ln, key, int)
        elif key == "output":
            cfg.output = value
        elif key == "runs_per_point":
            cfg.runs_per_point = _convert(value, ln, key, int)
        elif key == "thresholds":
            cfg.thresholds = [_convert(v, ln, key, float)
                              for v in _csv_list(value)]
        elif key == "modes":
            cfg.modes = _csv_list(value)
        elif key == "workers":
            # No effect, since the grid runs serially; still accepted and
            # checked so that configs which set it keep parsing.
            if _convert(value, ln, key, int) < 1:
                raise ConfigError(f"line {ln}: workers must be >= 1")

    ds = sections.get("dataset", {})
    if "kind" in ds:
        cfg.dataset.kind = ds["kind"][0]
    if cfg.dataset.kind not in _DATASET_KEYS:
        raise ConfigError(f"unknown dataset kind {cfg.dataset.kind!r}")
    allowed = _DATASET_KEYS[cfg.dataset.kind]
    for key, (value, ln) in ds.items():
        if key not in allowed:
            raise ConfigError(f"line {ln}: key '{key}' does not apply to "
                              f"dataset kind '{cfg.dataset.kind}'")
        if key == "kind":
            continue
        current = getattr(cfg.dataset, key)
        setattr(cfg.dataset, key,
                _convert(value, ln, key, type(current)) if not isinstance(
                    current, str) else value)

    est = sections.get("estimators", {})
    for key, (value, ln) in est.items():
        if key == "ids":
            cfg.estimators.ids = _csv_list(value)
        elif key == "noise_stddev":
            if value != "auto":
                _convert(value, ln, key, float)
            cfg.estimators.noise_stddev = value
        else:
            setattr(cfg.estimators, key, _convert(value, ln, key, int))

    tr = sections.get("train", {})
    for key, (value, ln) in tr.items():
        if key == "hidden":
            cfg.train.hidden = [_convert(v, ln, key, int)
                                for v in _csv_list(value)]
        elif key in ("model", "loss"):
            setattr(cfg.train, key, value)
        elif key in ("steps", "batch_size"):
            setattr(cfg.train, key, _convert(value, ln, key, int))
        else:
            setattr(cfg.train, key, _convert(value, ln, key, float))

    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    if not cfg.estimators.ids:
        raise ConfigError("estimator list is empty")
    if len(set(cfg.estimators.ids)) != len(cfg.estimators.ids):
        raise ConfigError("estimator ids must be unique")
    known = set(all_estimator_ids())
    for est in cfg.estimators.ids:
        if est not in known:
            raise ConfigError(f"unknown estimator id {est!r}")
    if not cfg.thresholds:
        raise ConfigError("threshold list is empty")
    if sorted(cfg.thresholds) != cfg.thresholds:
        raise ConfigError("thresholds must be sorted ascending")
    if len({f"{t:.6f}" for t in cfg.thresholds}) != len(cfg.thresholds):
        raise ConfigError("thresholds must differ at 6 decimals, the "
                          "precision of results and cell names")
    for t in cfg.thresholds:
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"threshold {t} outside [0, 1]")
    for mode in cfg.modes:
        if mode not in ("roar", "kar"):
            raise ConfigError(f"unknown mode {mode!r}")
    if not cfg.modes:
        raise ConfigError("mode list is empty")
    if cfg.runs_per_point < 1:
        raise ConfigError("runs_per_point must be >= 1")
    if cfg.train.model not in ("mlp", "least_squares"):
        raise ConfigError(f"unknown train model {cfg.train.model!r}")
    if cfg.dataset.kind == "toy" and "sobel" in cfg.estimators.ids:
        raise ConfigError("sobel control requires an image dataset")
    if cfg.dataset.kind == "idx":
        for key in ("train_images", "train_labels", "test_images",
                    "test_labels"):
            path = getattr(cfg.dataset, key)
            if not path:
                raise ConfigError(f"dataset.{key} is required for kind idx")
            if not os.path.exists(path):
                raise ConfigError(f"dataset.{key}: no such file {path!r}")


def _float_text(x: float) -> str:
    """Shortest `:g` text when it reparses to x, else the lossless repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form, all defaults echoed; reparses to an equal config."""
    lines = ["[experiment]"]
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"output = {cfg.output}")
    lines.append(f"runs_per_point = {cfg.runs_per_point}")
    lines.append("thresholds = " + ",".join(map(_float_text, cfg.thresholds)))
    lines.append("modes = " + ",".join(cfg.modes))
    lines.append("")
    lines.append("[dataset]")
    lines.append(f"kind = {cfg.dataset.kind}")
    for key in sorted(_DATASET_KEYS[cfg.dataset.kind] - {"kind"}):
        lines.append(f"{key} = {getattr(cfg.dataset, key)}")
    lines.append("")
    lines.append("[estimators]")
    lines.append("ids = " + ",".join(cfg.estimators.ids))
    lines.append(f"ig_steps = {cfg.estimators.ig_steps}")
    lines.append(f"ensemble_samples = {cfg.estimators.ensemble_samples}")
    lines.append(f"noise_stddev = {cfg.estimators.noise_stddev}")
    lines.append("")
    lines.append("[train]")
    lines.append(f"model = {cfg.train.model}")
    lines.append("hidden = " + ",".join(str(h) for h in cfg.train.hidden))
    lines.append(f"learning_rate = {_float_text(cfg.train.learning_rate)}")
    lines.append(f"steps = {cfg.train.steps}")
    lines.append(f"batch_size = {cfg.train.batch_size}")
    lines.append(f"loss = {cfg.train.loss}")
    lines.append(f"ridge = {_float_text(cfg.train.ridge)}")
    return "\n".join(lines) + "\n"
