#!/usr/bin/env python3
"""Full estimator benchmark on the synthetic oriented-bar image task: every
estimator family plus both controls, remove and keep modes, with the
no-retrain deletion metric for comparison."""

import argparse
import os
import sys
import tempfile

from roarbench import cli

CONFIG_TEMPLATE = """\
[experiment]
seed = {seed}
runs_per_point = {runs}
thresholds = 0,0.1,0.3,0.5,0.7,0.9
modes = roar,kar

[dataset]
kind = bars
n_train = {n_train}
n_test = {n_test}
size = 12

[estimators]
ids = grad, gb, ig, sg-grad, sg_sq-grad, var-grad, grad-sq, random, sobel

[train]
model = mlp
hidden = 32
steps = 600
batch_size = 32
learning_rate = 0.2
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--n-train", type=int, default=1500)
    parser.add_argument("--n-test", type=int, default=400)
    parser.add_argument("--output", default="bars_results")
    args = parser.parse_args()

    config_text = CONFIG_TEMPLATE.format(
        seed=args.seed, runs=args.runs, n_train=args.n_train,
        n_test=args.n_test)
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as f:
        f.write(config_text)
        config_path = f.name
    try:
        status = cli.main(["run", "--config", config_path,
                           "--output", args.output])
        if status != 0:
            return status
        status = cli.main(["deletion-metric", "--config", config_path,
                           "--output", args.output])
    finally:
        os.unlink(config_path)
    print(f"results in {args.output}/aggregated.csv and "
          f"{args.output}/deletion_aggregated.csv")
    return status


if __name__ == "__main__":
    sys.exit(main())
