"""Controlled validation on the synthetic task: contrasts retrain-based
evaluation against the frozen-model deletion metric for the ground-truth,
inverted, and random reference rankings, with pass/fail checks on the
expected curve shapes."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import experiment, nn, pipeline, toydata
from .config import ConfigError, ExperimentConfig

TOY_THRESHOLDS = (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)

# Curve-shape tolerances (accuracy points as fractions).
FLAT_TOLERANCE = 0.02
DELETION_DROP = 0.10
CHANCE_TOLERANCE = 0.03


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class ToyValidationResult:
    roar: dict  # (ranking, threshold) -> mean accuracy
    deletion: dict  # (ranking, threshold) -> accuracy
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self, path: str):
        lines = ["metric,ranking,threshold,accuracy"]
        for metric, accs in (("roar", self.roar), ("deletion", self.deletion)):
            lines += [f"{metric},{ranking},{pipeline.threshold_text(t)},"
                      f"{acc:.10f}"
                      for (ranking, t), acc in sorted(accs.items())]
        pipeline._atomic_write_text(path, "\n".join(lines) + "\n")


def run_toy_validation(cfg: ExperimentConfig) -> ToyValidationResult:
    """The toy contrast at TOY_THRESHOLDS, read from cfg's toy dataset keys,
    seed, runs_per_point and ridge, on the dataset `build_context` draws
    for cfg; a config of another dataset kind is refused."""
    if cfg.dataset.kind != "toy":
        raise ConfigError(
            f"toy validation needs dataset kind 'toy', not "
            f"{cfg.dataset.kind!r}")
    dataset = experiment.build_context(cfg).dataset
    scores = {variant: pipeline.ranking_to_scores(toydata.ground_truth_ranking(
                  dataset, variant,
                  seed=pipeline.derive_seed(cfg.seed, "ranking")))
              for variant in (toydata.GROUND_TRUTH, toydata.INVERTED,
                              toydata.RANDOM)}

    roar_grid = pipeline.run_roar(
        dataset, {name: (s, s) for name, s in scores.items()}, TOY_THRESHOLDS,
        nn.least_squares_trainer(cfg.train),
        runs_per_point=cfg.runs_per_point, base_seed=cfg.seed)
    baseline = nn.fit_least_squares(dataset, cfg.train.ridge, fit_bias=True)
    deletion_grid = pipeline.run_deletion_metric(
        dataset, baseline, scores.items(), TOY_THRESHOLDS)

    roar = {(e, t): mean for e, t, _, mean, _ in roar_grid.aggregate()}
    deletion = {(e, t): mean for e, t, _, mean, _
                in deletion_grid.aggregate()}
    # Raw run-0 records, free of mean-aggregation rounding, for the exact
    # t = 0 agreement check.
    roar_run0 = {(r.estimator_id, r.threshold): r.accuracy
                 for r in roar_grid.records if r.run_index == 0}

    result = ToyValidationResult(roar=roar, deletion=deletion)
    result.checks = _shape_checks(roar, deletion, roar_run0, TOY_THRESHOLDS)
    return result


def _shape_checks(roar, deletion, roar_run0, thresholds) -> list[Check]:
    checks = []
    inv, gt = toydata.INVERTED, toydata.GROUND_TRUTH

    baseline = roar[(inv, 0.0)]
    worst = max((abs(roar[(inv, t)] - baseline), t)
                for t in thresholds if t <= 0.70)
    checks.append(Check(
        "inverted_roar_flat_below_0.70", worst[0] <= FLAT_TOLERANCE,
        f"max |acc(t) - acc(0)| = {worst[0]:.4f} at t={worst[1]:g} "
        f"(tolerance {FLAT_TOLERANCE})"))

    drop = deletion[(inv, 0.0)] - deletion[(inv, 0.5)]
    checks.append(Check(
        "inverted_deletion_drop_at_0.5", drop >= DELETION_DROP,
        f"acc(0) - acc(0.5) = {drop:.4f} (need >= {DELETION_DROP})"))

    worst_gt = max((abs(roar[(gt, t)] - 0.5), t)
                   for t in thresholds if t >= 0.25)
    checks.append(Check(
        "ground_truth_roar_chance_above_0.25",
        worst_gt[0] <= CHANCE_TOLERANCE,
        f"max |acc(t) - 0.5| = {worst_gt[0]:.4f} at t={worst_gt[1]:g} "
        f"(tolerance {CHANCE_TOLERANCE})"))

    agree = abs(deletion[(gt, 0.0)] - roar_run0[(gt, 0.0)])
    checks.append(Check(
        "deletion_equals_roar_at_t0", agree == 0.0,
        f"|deletion(0) - roar(0)| = {agree:.2e}"))
    return checks
