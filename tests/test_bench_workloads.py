"""The benchmark's output checks as tier-1 tests: each workload of
`perfbench/workloads.py` runs at its tiny size through `cli.main` in this
process, its output captured the way a benchmark job captures it, and every
check the workload returns must pass. A break in what the checks read
(`modified/*/manifest.txt`, `load_modified_dataset`, the `baseline
accuracy=` line) then fails here. The benchmark files are only read here."""

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


@pytest.mark.parametrize("name", ["bars-grid", "bars-estimate",
                                  "toy-validate"])
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = load_workloads().WORKLOADS[name]
    params = workload.params("tiny")
    config = tmp_path / "config.ini"
    config.write_text(workload.config_text(params, 1))
    out = str(tmp_path / "out")
    log = io.StringIO()
    statuses = {}
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for command in workload.commands:
            statuses[command] = cli.main(
                [command, "--config", str(config), "--output", out])
    checks = workload.check(params, out, statuses, log.getvalue())
    assert len(checks) == workload.n_checks(params)
    assert [check for check in checks if not check[1]] == []
