"""Experiment configuration: a small sectioned key=value text format with
strict unknown-key errors, defaults echoed on serialization, and round-trip
parse/serialize stability."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

from .estimators import all_estimator_ids
from .nn import LOSSES, TrainConfig
from .pipeline import threshold_text


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
class ExperimentConfig:
    seed: int = 0
    output: str = "results"
    runs_per_point: int = 5
    thresholds: list[float] = field(
        default_factory=lambda: [0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
    modes: list[str] = field(default_factory=lambda: ["roar"])
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    estimators: EstimatorSpec = field(default_factory=EstimatorSpec)
    train: TrainConfig = field(default_factory=TrainConfig)


_DATASET_KEYS = {
    "toy": {"kind", "n_train", "n_test", "dim", "n_informative"},
    "bars": {"kind", "n_train", "n_test", "size", "noise"},
    "idx": {"kind", "train_images", "train_labels", "test_images",
            "test_labels"},
}

# Each section is one dataclass; [experiment] holds ExperimentConfig's
# fields other than the three sections nested in it.
_SECTIONS = {"experiment": ExperimentConfig, "dataset": DatasetSpec,
             "estimators": EstimatorSpec, "train": TrainConfig}
# Field types, resolved once: int, float, str, or a list of one of these.
_TYPES = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}


def _section_keys(name: str, kind: str | None = None) -> list[str]:
    """A section's keys in canonical order: field order, except that
    [dataset] of a given kind is `kind`, then that kind's keys sorted."""
    if name == "dataset" and kind is not None:
        return ["kind", *sorted(_DATASET_KEYS[kind] - {"kind"})]
    return [f.name for f in fields(_SECTIONS[name]) if f.name not in _SECTIONS]


def _section(cfg: ExperimentConfig, name: str):
    return cfg if name == "experiment" else getattr(cfg, name)


_SECTION_KEYS = {name: set(_section_keys(name)) for name in _SECTIONS}
_SECTION_KEYS["experiment"].add("workers")

# The half-open range [low, high) of each numeric key, whatever the dataset
# kind or model; a `noise_stddev` of "auto" is not checked.
_RANGES = {
    "seed": (0, 2 ** 64), "runs_per_point": (1, math.inf),
    "n_train": (1, math.inf), "n_test": (1, math.inf), "dim": (1, math.inf),
    "n_informative": (0, math.inf), "size": (1, math.inf),
    "noise": (0, math.inf), "ig_steps": (1, math.inf),
    "ensemble_samples": (1, math.inf), "noise_stddev": (0, math.inf),
    "steps": (0, math.inf), "batch_size": (1, math.inf),
    "ridge": (0, math.inf),
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
    """`value` as `kind`: int, float, str, or a list of one, comma-separated."""
    if get_origin(kind) is list:
        [item] = get_args(kind)
        return [_convert(v.strip(), lineno, key, item)
                for v in value.split(",") if v.strip()]
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed value for '{key}': "
                          f"{value!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    cfg = ExperimentConfig()
    if "workers" in sections.get("experiment", {}):
        # No effect, since the grid runs serially; still accepted and
        # checked so that configs which set it keep parsing.
        value, ln = sections["experiment"].pop("workers")
        if _convert(value, ln, "workers", int) < 1:
            raise ConfigError(f"line {ln}: workers must be >= 1")
    ds = sections.get("dataset", {})
    kind = ds["kind"][0] if "kind" in ds else cfg.dataset.kind
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    for key, (_, ln) in ds.items():
        if key not in _DATASET_KEYS[kind]:
            raise ConfigError(f"line {ln}: key '{key}' does not apply to "
                              f"dataset kind '{kind}'")
    for name, items in sections.items():
        for key, (value, ln) in items.items():
            if key == "noise_stddev" and value != "auto":
                _convert(value, ln, key, float)  # "auto" or a float
            setattr(_section(cfg, name), key,
                    _convert(value, ln, key, _TYPES[name][key]))
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
    if len(set(map(threshold_text, cfg.thresholds))) != len(cfg.thresholds):
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
    if len(set(cfg.modes)) != len(cfg.modes):
        raise ConfigError("modes must be unique")
    values = {key: getattr(_section(cfg, name), key)
              for name in _SECTIONS for key in _section_keys(name)}
    for key, (low, high) in _RANGES.items():
        value = values[key]
        if value != "auto" and not low <= (
                float(value) if isinstance(value, str) else value) < high:
            raise ConfigError(f"{key} = {value} outside [{low}, {high})")
    if not 0 < cfg.train.learning_rate < math.inf:
        raise ConfigError(f"learning_rate = {cfg.train.learning_rate} "
                          f"outside (0, inf)")
    if any(h < 1 for h in cfg.train.hidden):
        raise ConfigError("hidden layer sizes must be >= 1")
    if cfg.dataset.n_informative > cfg.dataset.dim:
        raise ConfigError("n_informative must be <= dim")
    if (cfg.train.model == "mlp" and cfg.dataset.kind != "idx"
            and cfg.train.batch_size > cfg.dataset.n_train):
        raise ConfigError(f"batch_size {cfg.train.batch_size} exceeds "
                          f"n_train {cfg.dataset.n_train}")
    if cfg.train.model not in ("mlp", "least_squares"):
        raise ConfigError(f"unknown train model {cfg.train.model!r}")
    if cfg.train.loss not in LOSSES:
        raise ConfigError(f"unknown loss {cfg.train.loss!r}")
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


def _text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_text, value))
    return _float_text(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form, all defaults echoed; reparses to an equal config."""
    lines = []
    for name in _SECTIONS:
        section = _section(cfg, name)
        lines += [f"[{name}]", *(
            f"{key} = {_text(getattr(section, key))}"
            for key in _section_keys(name, cfg.dataset.kind)), ""]
    return "\n".join(lines[:-1]) + "\n"
