"""Workload definitions: the config each workload generates from the
benchmark seed, the roarbench subcommands it runs, and the checks that decide
whether one job's outputs are correct.

This module imports nothing from roarbench at import time, so the parent
process can count a job's operations without loading the program.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable

ALL_IDS = ("grad", "gb", "ig", "sg-grad", "sg-gb", "sg-ig", "sg_sq-grad",
           "sg_sq-gb", "sg_sq-ig", "var-grad", "var-gb", "var-ig", "grad-sq",
           "gb-sq", "ig-sq", "random", "sobel")
# The estimator list of scripts/bars_benchmark.py.
GRID_IDS = ("grad", "gb", "ig", "sg-grad", "sg_sq-grad", "var-grad",
            "grad-sq", "random", "sobel")

# The toy task's curve-shape tolerances hold for the reference draw that
# tests/test_acceptance.py and scripts/toy_validation.py use, not for every
# draw, so toy-validate runs on that draw whatever the benchmark seed is.
TOY_REFERENCE_SEED = 9

# How many of the modified datasets bars-estimate reloads and verifies.
RELOAD_SAMPLES = 4

Check = tuple[str, bool, str]  # (name, passed, detail)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]  # roarbench subcommands, run in this order
    sections: dict  # config sections; the seed is added per job
    tiny: dict  # overrides that make a test-sized variant
    outputs: tuple[str, ...]  # digests compared across repeated jobs
    check: Callable = field(repr=False)  # (params, out_dir, statuses, log)
    seeded: bool = True  # False: the config seed is fixed, see above

    def params(self, size: str) -> dict:
        merged = {name: dict(items) for name, items in self.sections.items()}
        if size == "tiny":
            for name, items in self.tiny.items():
                merged[name].update(items)
        elif size != "full":
            raise ValueError(f"unknown size {size!r}")
        return merged

    def config_text(self, params: dict, seed: int) -> str:
        lines = []
        for name, items in params.items():
            lines.append(f"[{name}]")
            if name == "experiment":
                lines.append(
                    f"seed = {seed if self.seeded else TOY_REFERENCE_SEED}")
            lines += [f"{key} = {value}" for key, value in items.items()]
            lines.append("")
        return "\n".join(lines)

    def cells(self, params: dict) -> int:
        """Grid cells one job finishes: ROAR/KAR, deletion and modify cells."""
        if self.name == "toy-validate":
            # 3 reference rankings, each retrained and deletion-scored.
            return 2 * 3 * len(TOY_THRESHOLDS)
        e, t, m, _ = _grid_shape(params)
        if self.name == "bars-grid":
            return e * t * m + e * t  # `run` cells, then `deletion-metric`
        return e * t * m  # bars-estimate: one modified dataset per cell

    def retrainings(self, params: dict) -> int:
        if self.name != "bars-grid":
            return 0
        e, t, m, r = _grid_shape(params)
        return e * t * m * r

    def n_checks(self, params: dict) -> int:
        """Length of the list `check` returns for these params."""
        if self.name == "bars-estimate":
            return 2 + _grid_shape(params)[0] + RELOAD_SAMPLES
        return {"bars-grid": 6, "toy-validate": 5}[self.name]


def _grid_shape(params: dict) -> tuple[int, int, int, int]:
    exp = params["experiment"]
    ids = [i for i in str(params["estimators"]["ids"]).split(",") if i.strip()]
    return (len(ids), len(str(exp["thresholds"]).split(",")),
            len(str(exp["modes"]).split(",")), int(exp["runs_per_point"]))


# roarbench.validation.TOY_THRESHOLDS; kept here so the parent can count.
TOY_THRESHOLDS = (0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0)


# ---------------------------------------------------------------------------
# Output checks. Each returns a fixed-length list of Checks, so a job that
# crashes can be charged the same number of failed operations.

def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _guarded(name: str, fn) -> Check:
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError) as err:
        return name, False, f"{type(err).__name__}: {err}"
    return name, bool(ok), detail


def failed_retrainings(out: str) -> int:
    """Retrainings the grid recorded as diverged, from its cell fragments."""
    cells = os.path.join(out, "cells")
    count = 0
    for name in os.listdir(cells):
        with open(os.path.join(cells, name)) as f:
            count += sum(",failed:" in line for line in f)
    return count


def _exit_check(statuses: dict) -> Check:
    bad = {c: s for c, s in statuses.items() if s != 0}
    return "exit_status", not bad, f"exit codes {statuses}"


def check_grid(params: dict, out: str, statuses: dict, log: str) -> list[Check]:
    e, t, m, r = _grid_shape(params)

    def record_count():
        failed = failed_retrainings(out)
        rows = len(_read_rows(os.path.join(out, "results.csv")))
        expected = e * t * m * r - failed
        return rows == expected, f"{rows} records, expected {expected} " \
                                 f"({failed} failed retrainings)"

    def accuracy_range():
        values = [float(row["accuracy"]) for name in ("results.csv",
                                                      "deletion.csv")
                  for row in _read_rows(os.path.join(out, name))]
        bad = [v for v in values if not 0.0 <= v <= 1.0]
        return values and not bad, f"{len(values)} accuracies, " \
                                   f"{len(bad)} outside [0, 1]"

    def mean_at_zero(mode):
        rows = _read_rows(os.path.join(out, "aggregated.csv"))
        values = [float(row["mean_accuracy"]) for row in rows
                  if row["mode"] == mode and float(row["threshold"]) == 0.0]
        if len(values) != e:
            raise ValueError(f"{len(values)} {mode} cells at t = 0, "
                             f"expected {e}")
        return values

    def roar_t0():
        low = min(mean_at_zero("roar"))
        return low >= 0.95, f"lowest ROAR mean accuracy at t = 0 is " \
                            f"{low:.4f} (need >= 0.95)"

    def kar_t0():
        high = max(mean_at_zero("kar"))
        return high <= 0.6, f"highest KAR mean accuracy at t = 0 is " \
                            f"{high:.4f} (need <= 0.6)"

    def deletion_t0():
        # `deletion-metric` logs its baseline last; both commands train the
        # same baseline.
        marks = [line.split("=", 1)[1] for line in log.splitlines()
                 if line.startswith("baseline accuracy=")]
        rows = [row for row in _read_rows(os.path.join(out, "deletion.csv"))
                if float(row["threshold"]) == 0.0]
        got = sorted({f"{float(row['accuracy']):.4f}" for row in rows})
        ok = bool(marks) and len(rows) == e and got == [marks[-1]]
        return ok, f"deletion accuracy at t = 0 {got}, baseline " \
                   f"{marks[-1] if marks else 'missing'}"

    return [_exit_check(statuses),
            _guarded("record_count", record_count),
            _guarded("accuracy_range", accuracy_range),
            _guarded("roar_t0", roar_t0),
            _guarded("kar_t0", kar_t0),
            _guarded("deletion_t0", deletion_t0)]


def check_estimate(params: dict, out: str, statuses: dict,
                   log: str) -> list[Check]:
    import numpy as np
    from roarbench import pipeline

    ids = [i.strip() for i in params["estimators"]["ids"].split(",")]
    e, t, m, _ = _grid_shape(params)
    dataset = params["dataset"]
    n_train, n_test = int(dataset["n_train"]), int(dataset["n_test"])
    d = int(dataset["size"]) ** 2

    def scores(estimator_id):
        with np.load(os.path.join(out, "estimates",
                                  f"{estimator_id}.npz")) as data:
            train, test = data["train"], data["test"]
        ok = (train.shape == (n_train, d) and test.shape == (n_test, d)
              and np.isfinite(train).all() and np.isfinite(test).all())
        return ok, f"shapes {train.shape} {test.shape}"

    modified = os.path.join(out, "modified")

    def listing():
        return sorted(name for name in os.listdir(modified)
                      if os.path.exists(os.path.join(modified, name,
                                                     "manifest.txt")))

    def count():
        found = len(listing())
        return found == e * t * m, f"{found} modified datasets, " \
                                   f"expected {e * t * m}"

    def reload(k):
        names = listing()
        name = names[k * len(names) // RELOAD_SAMPLES]
        loaded = pipeline.load_modified_dataset(os.path.join(modified, name))
        ok = (loaded.train_x.shape == (n_train, d)
              and loaded.test_x.shape == (n_test, d))
        return ok, f"{name} reloaded, checksums verified"

    return ([_exit_check(statuses)]
            + [_guarded(f"scores_{i}", lambda i=i: scores(i)) for i in ids]
            + [_guarded("modified_count", count)]
            + [_guarded(f"reload_{k}", lambda k=k: reload(k))
               for k in range(RELOAD_SAMPLES)])


def check_toy(params: dict, out: str, statuses: dict, log: str) -> list[Check]:
    verdicts = [line for line in log.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    checks = []
    for k in range(4):
        line = verdicts[k] if k < len(verdicts) else "missing"
        checks.append((f"toy_check_{k}", line.startswith("PASS "), line))
    passes = sum(line.startswith("PASS ") for line in verdicts)
    ok = statuses.get("toy-validate") == 0 and passes == 4 == len(verdicts)
    checks.append(("exit_with_4_pass", ok,
                   f"exit codes {statuses}, {passes} PASS lines"))
    return checks


# ---------------------------------------------------------------------------
# Output digests for the determinism check.

def _file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digests(workload: Workload, out: str) -> dict[str, str]:
    """sha256 of each output that must repeat byte for byte; a missing
    output gets no entry, which the comparison counts as a mismatch."""
    found = {}
    for name in workload.outputs:
        path = os.path.join(out, name)
        try:
            if os.path.isfile(path):
                found[name] = _file_digest(path)
            elif name == "estimates":
                found[name] = _estimates_digest(path)
            elif name == "modified":
                found[name] = _manifests_digest(path)
        except (OSError, ValueError, KeyError):
            continue
    return found


def _estimates_digest(directory: str) -> str:
    # npz archives carry write timestamps, so hash the arrays they hold.
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with np.load(os.path.join(directory, name)) as data:
            for key in ("train", "test"):
                h.update(name.encode() + key.encode())
                h.update(np.ascontiguousarray(data[key]).tobytes())
    return h.hexdigest()


def _manifests_digest(directory: str) -> str:
    # Each manifest holds the sha256 of its dataset's files.
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        h.update(_file_digest(
            os.path.join(directory, name, "manifest.txt")).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------

_TRAIN = {"model": "mlp", "hidden": 32, "steps": 200, "batch_size": 32,
          "learning_rate": 0.2}

WORKLOADS = {
    # scripts/bars_benchmark.py (`run`, then `deletion-metric`), scaled so a
    # job takes seconds: 3 thresholds, 200 SGD steps, smaller ensembles and
    # train split. Two runs per point, so stacked retraining has runs to
    # stack. 400 test images keep the KAR chance check at ~4 sigma; with 200
    # training images instead of 300, 8% of retrainings at t = 0 fell below
    # the ROAR check's 0.95.
    "bars-grid": Workload(
        name="bars-grid",
        commands=("run", "deletion-metric"),
        sections={
            "experiment": {"runs_per_point": 2, "thresholds": "0,0.5,0.9",
                           "modes": "roar,kar", "workers": 1},
            "dataset": {"kind": "bars", "n_train": 300, "n_test": 400,
                        "size": 12},
            "estimators": {"ids": ",".join(GRID_IDS), "ig_steps": 10,
                           "ensemble_samples": 5},
            "train": dict(_TRAIN),
        },
        tiny={"estimators": {"ids": "grad,random,sobel"},
              "experiment": {"runs_per_point": 1}},
        outputs=("results.csv", "aggregated.csv", "deletion.csv"),
        check=check_grid,
    ),
    # Every registry estimator at registry defaults, then `modify`, which
    # reads the estimate cache back and writes 17 x 6 x 2 = 204 datasets.
    "bars-estimate": Workload(
        name="bars-estimate",
        commands=("estimate", "modify"),
        sections={
            "experiment": {"runs_per_point": 1,
                           "thresholds": "0,0.1,0.3,0.5,0.7,0.9",
                           "modes": "roar,kar", "workers": 1},
            "dataset": {"kind": "bars", "n_train": 96, "n_test": 32,
                        "size": 12},
            "estimators": {"ids": ",".join(ALL_IDS)},
            "train": dict(_TRAIN),
        },
        tiny={"dataset": {"n_train": 32, "n_test": 8},
              "estimators": {"ids": "grad,ig,sg-grad,random,sobel",
                             "ig_steps": 5, "ensemble_samples": 3}},
        outputs=("estimates", "modified"),
        check=check_estimate,
    ),
    # `roarbench toy-validate` on the default toy task.
    "toy-validate": Workload(
        name="toy-validate",
        commands=("toy-validate",),
        sections={
            "experiment": {"runs_per_point": 5},
            "dataset": {"kind": "toy", "n_train": 10_000, "n_test": 2_000,
                        "dim": 16, "n_informative": 4},
            "estimators": {"ids": "random"},
            "train": {"model": "least_squares"},
        },
        tiny={"experiment": {"runs_per_point": 1}},
        outputs=("toy_validation.csv",),
        check=check_toy,
        seeded=False,
    ),
}
