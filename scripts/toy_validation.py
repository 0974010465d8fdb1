#!/usr/bin/env python3
"""Run the synthetic-data retrain-vs-no-retrain comparison and print the
accuracy curves plus the curve-shape verdicts."""

import argparse
import os
import sys

from roarbench import validation
from roarbench.config import DatasetSpec, ExperimentConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--n-train", type=int, default=10_000)
    parser.add_argument("--n-test", type=int, default=2_000)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--output", default="toy_results")
    args = parser.parse_args()

    result = validation.run_toy_validation(ExperimentConfig(
        seed=args.seed, runs_per_point=args.runs,
        dataset=DatasetSpec(n_train=args.n_train, n_test=args.n_test)))

    os.makedirs(args.output, exist_ok=True)
    csv_path = os.path.join(args.output, "toy_validation.csv")
    result.to_csv(csv_path)

    print(f"{'ranking':>14} {'t':>6} {'retrain':>8} {'no-retrain':>10}")
    for ranking in ("ground_truth", "inverted", "random"):
        for t in validation.TOY_THRESHOLDS:
            print(f"{ranking:>14} {t:>6.3f} "
                  f"{result.roar[(ranking, t)]:>8.4f} "
                  f"{result.deletion[(ranking, t)]:>10.4f}")
    print()
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    print(f"\ncurves written to {csv_path}")
    return 0 if result.passed else 2


if __name__ == "__main__":
    sys.exit(main())
