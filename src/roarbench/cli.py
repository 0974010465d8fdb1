"""Command-line front end.

Commands: validate-config, toy-validate, estimate, modify, run, report,
deletion-metric; each takes --config, --output and --seed. Exit codes: 0
success, 1 validation error, 2 acceptance failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment, pipeline
from .config import ConfigError, _validate, parse_config, serialize_config

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
        _validate(cfg)
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
    experiment.check_output_config(cfg, cfg.output, stamp=True)
    result = run_toy_validation(cfg)
    result.to_csv(os.path.join(cfg.output, "toy_validation.csv"))
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    if not result.passed:
        failed = [c.name for c in result.checks if not c.passed]
        raise AcceptanceFailure("failed checks: " + ", ".join(failed))
    return EXIT_OK


def _context(args) -> "experiment.ExperimentContext":
    """Load the config, check or stamp `config.ini`, build the dataset."""
    cfg = _load_config(args)
    experiment.check_output_config(cfg, cfg.output, stamp=True)
    return experiment.build_context(cfg)


def _baseline(ctx):
    """The baseline of `<output>/baseline.npz`, trained and saved there by
    the first command of an output directory that needs it."""
    path = os.path.join(ctx.config.output, "baseline.npz")
    if os.path.exists(path):
        model, baseline_acc = experiment.load_baseline(ctx.config, path)
    else:
        model, baseline_acc = experiment.train_baseline(ctx)
        experiment.save_baseline(ctx.config, model, baseline_acc, path)
    print(f"baseline accuracy={baseline_acc:.4f}", file=sys.stderr)
    return model


def cmd_estimate(args) -> int:
    ctx = _context(args)
    experiment.save_estimates(
        experiment.compute_all_estimates(ctx, _baseline(ctx)),
        os.path.join(ctx.config.output, "estimates"))
    return EXIT_OK


def cmd_modify(args) -> int:
    ctx = _context(args)
    cfg = ctx.config
    estimates_dir = os.path.join(cfg.output, "estimates")
    if not os.path.isdir(estimates_dir):  # saved cells are rebuilt from them
        experiment.save_estimates(
            experiment.compute_all_estimates(ctx, _baseline(ctx)),
            estimates_dir)
    # One estimator's scores are read at a time, and each cell's manifest is
    # saved as it is built; no cell is kept while the next is built.
    for m in pipeline.generate_modified_datasets(
            ctx.dataset, experiment.load_estimates(ctx, estimates_dir),
            cfg.thresholds, modes=cfg.modes, source_id=cfg.dataset.kind,
            seed=cfg.seed):
        p = m.provenance
        pipeline.save_modified_dataset(m, os.path.join(
            cfg.output, "modified",
            pipeline.cell_name(p.estimator_id, p.threshold, p.mode)))
        del m
    return EXIT_OK


def cmd_run(args) -> int:
    ctx = _context(args)
    experiment.run_grid(ctx, _baseline(ctx), ctx.config.output)
    return _report(ctx.config)


def cmd_report(args) -> int:
    return _report(_load_config(args))


def _report(cfg) -> int:
    """The report of the grid's fragments; no dataset is built or read."""
    experiment.check_output_config(cfg, cfg.output)
    grid = experiment.collect_grid(cfg, cfg.output)
    experiment.write_report(cfg, grid, cfg.output)
    return EXIT_OK


def cmd_deletion_metric(args) -> int:
    ctx = _context(args)
    model = _baseline(ctx)
    grid = pipeline.run_deletion_metric(
        ctx.dataset, model, experiment.deletion_estimates(ctx, model),
        ctx.config.thresholds)
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
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
