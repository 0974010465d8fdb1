"""The benchmark's own tests, at a tiny size:

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads


def table(names, rows):
    """SpanTable from (name, start, end, parent) rows."""
    ids = {n: i for i, n in enumerate(names)}
    return tracer.SpanTable(
        names=list(names), name=np.array([ids[r[0]] for r in rows]),
        start=np.array([r[1] for r in rows], dtype=float),
        end=np.array([r[2] for r in rows], dtype=float),
        parent=np.array([r[3] for r in rows]),
        raised=np.zeros(len(rows), dtype=bool), attrs={})


class TestSelfTime:
    def test_overlapping_and_overhanging_children(self):
        # Children [1,4] and [3,6] overlap; [8,12] runs past its parent's
        # end. Covered part of [0,10]: [1,6] and [8,10], 7 of 10.
        start = np.array([0.0, 1.0, 3.0, 8.0, 2.0])
        end = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
        parent = np.array([-1, 0, 0, 0, 1])
        assert tracer.self_times(start, end, parent).tolist() == \
            [3.0, 2.0, 3.0, 4.0, 1.0]

    def test_layer_and_unattributed_totals(self):
        t = table(["bench.job", "cli.main", "nn.train", "pipeline.run_roar"],
                  [("bench.job", 0, 10, -1), ("cli.main", 1, 9, 0),
                   ("nn.train", 2, 4, 1), ("nn.train", 5, 6, 1),
                   ("pipeline.run_roar", 6, 8, 1)])
        assert t.metric("trace.unattributed_s") == 2.0
        assert t.metric("cli.self_s") == 3.0
        assert t.metric("nn.self_s") == 3.0
        assert t.metric("nn.train.calls") == 2.0
        assert t.metric("nn.train.busy_s") == 3.0
        assert t.metric("pipeline.run_roar.self_s") == 2.0
        assert t.metric("pipeline.rank_features.calls") == 0.0
        with pytest.raises(KeyError):
            t.metric("nn.trian.calls")


def test_tracer_wraps_names_where_callers_look_them_up():
    from roarbench import estimators, experiment, nn
    from roarbench.config import parse_config

    original = experiment.compute_estimates
    cfg = parse_config("[dataset]\nkind = bars\nn_train = 40\nn_test = 8\n"
                       "[estimators]\nids = grad, sg-grad\n"
                       "ensemble_samples = 2\n[train]\nsteps = 5\n")
    t = tracer.Tracer()
    t.install()
    try:
        ctx = experiment.build_context(cfg)
        model, _ = experiment.train_baseline(ctx)
        experiment.compute_all_estimates(ctx, model)
    finally:
        t.uninstall()
    assert experiment.compute_estimates is original
    assert estimators.input_gradient is nn.input_gradient
    spans = t.table()
    names = [spans.names[i] for i in spans.name]
    assert names.count("estimators.compute_estimates") == 4
    assert names.count("nn.input_gradient") == 48 * (1 + 2)
    assert names.count("nn.train") == 1
    assert spans.metric("datasets.generate_bars.busy_s") > 0
    assert spans.metric("estimators.compute_estimates.unique_frac") == 1.0
    # Every input gradient nests under a compute_estimates span.
    grads = spans.select("nn.input_gradient")
    scorers = set(spans.select("estimators.compute_estimates").tolist())
    assert set(spans.parent[grads].tolist()) <= scorers


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(workload, trace):
    result, lines = run.run_benchmark(workload, seed=3, seconds=0,
                                      trace=trace, size="tiny")
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert math.isfinite(reported["value"])
        assert any(line.startswith(f"{m['name']} = ") and
                   f" {m['unit']} (median of" in line for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_n_checks_matches_check_list():
    for wl in workloads.WORKLOADS.values():
        params = wl.params("full")
        checks = wl.check(params, "no-such-dir", {"x": 0}, "")
        assert len(checks) == wl.n_checks(params)


class TestFailedOperations:
    def job(self, wl, params):
        checks = [(f"c{i}", True, "") for i in range(wl.n_checks(params))]
        digests = {name: "d" for name in wl.outputs}
        return {"checks": checks, "digests": digests,
                "retrainings": [wl.retrainings(params), 0]}

    def test_forced_check_failure_counts(self, tmp_path):
        wl = workloads.WORKLOADS["bars-grid"]
        params = wl.params("tiny")
        job = run.run_job("bars-grid", 5, False, "tiny", str(tmp_path / "j"))
        out = str(tmp_path / "j" / "out")
        assert run.account(wl, params, job, None)[1] == 0
        # Drop one record from results.csv and check again.
        path = os.path.join(out, "results.csv")
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[:-1])
        log = (tmp_path / "j" / "cli.log").read_text()
        job["checks"] = wl.check(params, out, {"run": 0}, log)
        attempted, failed, notes = run.account(wl, params, job, None)
        assert failed == 1 and attempted > failed
        assert notes[0].startswith("record_count")

    def test_crashed_job_fails_every_operation(self):
        wl = workloads.WORKLOADS["bars-estimate"]
        params = wl.params("full")
        attempted, failed, _ = run.account(wl, params, None, {"digests": {}})
        assert attempted == failed == wl.n_checks(params) + len(wl.outputs)

    def test_determinism_mismatch_and_divergence_count(self):
        wl = workloads.WORKLOADS["bars-grid"]
        params = wl.params("full")
        first, second = self.job(wl, params), self.job(wl, params)
        second["digests"]["results.csv"] = "other"
        second["retrainings"][1] = 2
        attempted, failed, _ = run.account(wl, params, second, first)
        assert attempted == (wl.retrainings(params) + wl.n_checks(params)
                             + len(wl.outputs))
        assert failed == 3


def test_exits_nonzero_without_program_sources(tmp_path):
    root = os.path.dirname(run.HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
