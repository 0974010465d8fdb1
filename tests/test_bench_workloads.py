"""The benchmark's output checks as tier-1 tests: each workload of
`perfbench/workloads.py` runs at its tiny size through `cli.main` in this
process, its output captured the way a benchmark job captures it, and every
check the workload returns must pass. A break in what the checks read
(`modified/*/manifest.txt`, `load_modified_dataset`, the `baseline
accuracy=` line) then fails here, as does an output that does not repeat
byte for byte across two jobs. The benchmark files are only read here."""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from roarbench import cli

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "workloads.py")


def load_workloads():
    name = "_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def run_workload(workload, params, tmp_path, name):
    """One job of a workload into `tmp_path/name`: its output directory, the
    exit status per command and the captured log."""
    directory = tmp_path / name
    directory.mkdir()
    config = directory / "config.ini"
    config.write_text(workload.config_text(params, 1))
    out = str(directory / "out")
    log = io.StringIO()
    statuses = {}
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for command in workload.commands:
            statuses[command] = cli.main(
                [command, "--config", str(config), "--output", out])
    return out, statuses, log.getvalue()


@pytest.mark.parametrize("name", ["bars-grid", "bars-estimate",
                                  "toy-validate"])
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = load_workloads().WORKLOADS[name]
    params = workload.params("tiny")
    out, statuses, log = run_workload(workload, params, tmp_path, "job")
    checks = workload.check(params, out, statuses, log)
    assert len(checks) == workload.n_checks(params)
    assert [check for check in checks if not check[1]] == []


@pytest.mark.parametrize("name", ["bars-grid", "bars-estimate",
                                  "toy-validate"])
def test_tiny_workload_repeats_its_outputs(name, tmp_path):
    # The benchmark refuses a job whose output digests differ from the
    # first job's; two jobs into two directories must agree on each.
    module = load_workloads()
    workload = module.WORKLOADS[name]
    params = workload.params("tiny")
    first, second = (module.digests(workload, run_workload(
        workload, params, tmp_path, job)[0]) for job in ("first", "second"))
    assert sorted(first) == sorted(workload.outputs)
    assert first == second
