#!/usr/bin/env python3
"""Run the synthetic-data retrain-vs-no-retrain comparison through
`roarbench toy-validate` and print the accuracy curves plus the curve-shape
verdicts. Exits with the command's status."""

import argparse
import os
import sys
import tempfile

from roarbench import cli

CONFIG_TEMPLATE = """\
[experiment]
seed = {seed}
runs_per_point = {runs}

[dataset]
kind = toy
n_train = {n_train}
n_test = {n_test}

[estimators]
ids = random

[train]
model = least_squares
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--n-train", type=int, default=10_000)
    parser.add_argument("--n-test", type=int, default=2_000)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--output", default="toy_results")
    args = parser.parse_args(argv)

    config_text = CONFIG_TEMPLATE.format(
        seed=args.seed, runs=args.runs, n_train=args.n_train,
        n_test=args.n_test)
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as f:
        f.write(config_text)
        config_path = f.name
    try:
        status = cli.main(["toy-validate", "--config", config_path,
                           "--output", args.output])
    finally:
        os.unlink(config_path)
    if status not in (cli.EXIT_OK, cli.EXIT_ACCEPTANCE):
        return status  # no curves of this config were written

    csv_path = os.path.join(args.output, "toy_validation.csv")
    curves = {}  # (ranking, threshold) -> {metric: accuracy}
    with open(csv_path) as f:
        for line in f.read().splitlines()[1:]:
            metric, ranking, t, acc = line.split(",")
            curves.setdefault((ranking, float(t)), {})[metric] = float(acc)
    print(f"\n{'ranking':>14} {'t':>6} {'retrain':>8} {'no-retrain':>10}")
    for (ranking, t), acc in curves.items():
        print(f"{ranking:>14} {t:>6.3f} {acc['roar']:>8.4f} "
              f"{acc['deletion']:>10.4f}")
    print(f"\ncurves written to {csv_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
