"""Command-line front end.

Subcommands: validate-config, toy-validate, estimate, modify, run, report,
deletion-metric. Exit codes: 0 success, 1 validation error, 2 acceptance
failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment, pipeline
from .config import ConfigError, parse_config, serialize_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCEPTANCE = 2
EXIT_RUNTIME = 3


class AcceptanceFailure(Exception):
    pass


def _load_config(args) -> "experiment.ExperimentConfig":
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    cfg = parse_config(text)
    if args.output:
        cfg.output = args.output
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def cmd_validate_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(serialize_config(cfg))
    return EXIT_OK


def cmd_toy_validate(args) -> int:
    from .validation import run_toy_validation

    cfg = _load_config(args)
    if cfg.dataset.kind != "toy":
        raise ConfigError("toy-validate requires dataset kind 'toy'")
    result = run_toy_validation(
        n_train=cfg.dataset.n_train, n_test=cfg.dataset.n_test,
        dim=cfg.dataset.dim, n_informative=cfg.dataset.n_informative,
        seed=cfg.seed, runs_per_point=cfg.runs_per_point,
        ridge=cfg.train.ridge)
    os.makedirs(cfg.output, exist_ok=True)
    result.to_csv(os.path.join(cfg.output, "toy_validation.csv"))
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    if not result.passed:
        failed = [c.name for c in result.checks if not c.passed]
        raise AcceptanceFailure("failed checks: " + ", ".join(failed))
    return EXIT_OK


def _prepare(args):
    cfg = _load_config(args)
    ctx = experiment.build_context(cfg)
    model, baseline_acc = experiment.train_baseline(ctx)
    print(f"baseline accuracy={baseline_acc:.4f}", file=sys.stderr)
    return ctx, model


def cmd_estimate(args) -> int:
    ctx, model = _prepare(args)
    estimates = experiment.compute_all_estimates(ctx, model)
    experiment.save_estimates(estimates,
                              os.path.join(ctx.config.output, "estimates"))
    return EXIT_OK


def cmd_modify(args) -> int:
    ctx, model = _prepare(args)
    cfg = ctx.config
    estimates_dir = os.path.join(cfg.output, "estimates")
    if os.path.isdir(estimates_dir):
        estimates = experiment.load_estimates(ctx, estimates_dir)
    else:
        estimates = experiment.compute_all_estimates(ctx, model)
    # Each dataset is saved as it is built; none is kept in memory after.
    for m in pipeline.generate_modified_datasets(
            ctx.dataset, estimates, cfg.thresholds, modes=cfg.modes,
            granularity=ctx.granularity, image_shape=ctx.image_shape,
            source_id=ctx.source_id):
        p = m.provenance
        pipeline.save_modified_dataset(m, os.path.join(
            cfg.output, "modified",
            pipeline.cell_name(p.estimator_id, p.threshold, p.mode)))
    return EXIT_OK


def cmd_run(args) -> int:
    ctx, model = _prepare(args)
    os.makedirs(ctx.config.output, exist_ok=True)
    experiment.run_grid(ctx, model, ctx.config.output)
    grid = experiment.collect_grid(ctx, ctx.config.output)
    experiment.write_report(ctx, grid, ctx.config.output)
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    ctx = experiment.build_context(cfg)
    grid = experiment.collect_grid(ctx, cfg.output)
    experiment.write_report(ctx, grid, cfg.output)
    return EXIT_OK


def cmd_deletion_metric(args) -> int:
    ctx, model = _prepare(args)
    estimates = experiment.compute_all_estimates(ctx, model)
    grid = pipeline.run_deletion_metric(
        ctx.dataset, model, estimates, ctx.config.thresholds,
        granularity=ctx.granularity, image_shape=ctx.image_shape)
    os.makedirs(ctx.config.output, exist_ok=True)
    grid.to_csv(os.path.join(ctx.config.output, "deletion.csv"))
    grid.aggregated_to_csv(
        os.path.join(ctx.config.output, "deletion_aggregated.csv"))
    return EXIT_OK


_COMMANDS = {
    "validate-config": cmd_validate_config,
    "toy-validate": cmd_toy_validate,
    "estimate": cmd_estimate,
    "modify": cmd_modify,
    "run": cmd_run,
    "report": cmd_report,
    "deletion-metric": cmd_deletion_metric,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roarbench",
        description="Remove-and-retrain feature-importance benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--output", help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=None,
                       help="no effect, kept for existing scripts; the grid "
                       "runs serially")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except AcceptanceFailure as err:
        print(f"acceptance failure: {err}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    except Exception as err:  # surfaced with a stable exit code
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
