"""Guards the hooks `perfbench/run.py --trace 1` relies on: every function
the tracer wraps must still exist where its callers look it up, and every
function it describes must keep the parameters the tracer reads from each
call; and `run` must retrain through `pipeline.run_roar`, so that its
traced span covers retraining. The benchmark files are only read here."""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

from roarbench import cli, experiment, nn, pipeline
from roarbench.estimators import EstimatorSettings

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    tracer = load_tracer()
    assert tracer.PATCHES
    for module_name, attr, span in tracer.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), \
            f"{module_name}.{attr} (span {span}) is gone"


def test_compute_estimates_binds_described_parameters():
    tracer = load_tracer()
    signature = inspect.signature(experiment.compute_estimates)
    assert {"estimator_id", "model", "x", "targets"} <= \
        set(signature.parameters)
    # Bind a real call the way the tracer does and describe it.
    model = nn.init_mlp([4, 3, 2], np.random.default_rng(0))
    bound = signature.bind("grad", None, model, np.ones((5, 4)),
                           np.zeros(5, dtype=int))
    bound.apply_defaults()
    described = tracer.DESCRIBE["estimators.compute_estimates"](
        bound.arguments)
    assert described["id"] == "grad" and described["samples"] == 5


def test_train_binds_described_parameters_of_a_dataset_stack():
    tracer = load_tracer()
    signature = inspect.signature(nn.train)
    rng = np.random.default_rng(1)
    datasets = [nn.ArrayDataset(rng.standard_normal((6, 3)),
                                np.arange(6) % 2,
                                rng.standard_normal((4, 3)),
                                np.arange(4) % 2) for _ in range(3)]
    args = ([3, 4, 2], nn.DatasetStack.of(datasets),
            nn.TrainConfig(steps=5, batch_size=2), [[0, 1], [2], [3, 4]])
    bound = signature.bind(*args)
    bound.apply_defaults()
    assert tracer.DESCRIBE["nn.train"](bound.arguments) == {"steps": 5}
    # The bound call is a real one: one result list per stacked dataset.
    results = nn.train(*bound.args, **bound.kwargs)
    assert [len(r) for r in results] == [2, 1, 2]


def described_calls(tmp_path) -> dict:
    """Per span name the tracer describes: the args and kwargs of one real
    call, and the entries its description must hold."""
    rng = np.random.default_rng(2)
    dataset = nn.ArrayDataset(rng.standard_normal((6, 3)), np.arange(6) % 2,
                              rng.standard_normal((4, 3)), np.arange(4) % 2)
    modified = pipeline.ModifiedDataset(
        dataset.train_x, dataset.train_y, dataset.test_x, dataset.test_y,
        provenance=pipeline.Provenance("random", 0.5, "roar", 2, "dataset"))
    cell = str(tmp_path / "cell")
    return {
        "estimators.compute_estimates": (
            ("grad", EstimatorSettings(), nn.init_mlp([3, 4, 2], rng),
             dataset.test_x, dataset.test_y), {},
            {"id": "grad", "samples": 4}),
        "nn.fit_least_squares": ((dataset,), {"ridge": 1e-8,
                                              "fit_bias": True}, {}),
        "nn.train": (([3, 4, 2], nn.DatasetStack.of([dataset]),
                      nn.TrainConfig(steps=5, batch_size=2), [[0]]), {},
                     {"steps": 5}),
        "pipeline.save_modified_dataset": ((modified, cell), {},
                                           {"dir": cell}),
    }


@pytest.mark.parametrize("name", sorted(load_tracer().DESCRIBE))
def test_described_call_binds_and_is_described(name, tmp_path):
    tracer = load_tracer()
    [(module_name, attr)] = [(module_name, attr) for module_name, attr, span
                             in tracer.PATCHES if span == name]
    fn = getattr(importlib.import_module(module_name), attr)
    args, kwargs, expected = described_calls(tmp_path)[name]
    # Bind the call the way the tracer does, describe it, then make it.
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    described = tracer.DESCRIBE[name](bound.arguments)
    assert expected.items() <= described.items()
    fn(*bound.args, **bound.kwargs)


def test_run_retrains_through_run_roar(tmp_path, monkeypatch):
    config = tmp_path / "config.ini"
    config.write_text(
        "[experiment]\nseed = 3\nruns_per_point = 1\nthresholds = 0,0.5\n"
        "[dataset]\nkind = bars\nn_train = 40\nn_test = 20\nsize = 6\n"
        "[estimators]\nids = grad, random, sobel\n"
        "[train]\nmodel = mlp\nhidden = 4\nsteps = 10\nbatch_size = 8\n")
    calls = []
    run_roar = pipeline.run_roar

    def counting(dataset, estimates, *args, **kwargs):
        calls.append(list(estimates))
        return run_roar(dataset, estimates, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_roar", counting)
    out = str(tmp_path / "out")

    def run():
        assert cli.main(["run", "--config", str(config),
                         "--output", out]) == 0

    run()
    assert calls == [["grad"], ["random"], ["sobel"]]
    os.remove(os.path.join(out, "cells", "random.csv"))
    run()
    assert calls[3:] == [["random"]]
    run()
    assert calls[4:] == []


def test_run_scores_through_compute_estimates_once_per_split(tmp_path,
                                                             monkeypatch):
    # The tracer's `estimators.compute_estimates` span wraps
    # experiment.compute_estimates; `run` must score through that name, one
    # call per (estimator, split), family by family: the ensemble ids, then
    # grad and grad-sq, then random.
    config = tmp_path / "config.ini"
    config.write_text(
        "[experiment]\nseed = 3\nruns_per_point = 1\nthresholds = 0,0.5\n"
        "[dataset]\nkind = bars\nn_train = 40\nn_test = 20\nsize = 6\n"
        "[estimators]\nids = sg-grad, grad, random, var-grad, grad-sq\n"
        "ensemble_samples = 2\n"
        "[train]\nmodel = mlp\nhidden = 4\nsteps = 10\nbatch_size = 8\n")
    calls = []
    compute_estimates = experiment.compute_estimates

    def counting(estimator_id, settings, model, x, *args, **kwargs):
        calls.append((estimator_id, len(x)))
        return compute_estimates(estimator_id, settings, model, x, *args,
                                 **kwargs)

    monkeypatch.setattr(experiment, "compute_estimates", counting)
    assert cli.main(["run", "--config", str(config),
                     "--output", str(tmp_path / "out")]) == 0
    assert calls == [(estimator_id, n)
                     for estimator_id in ("sg-grad", "var-grad", "grad",
                                          "grad-sq", "random")
                     for n in (40, 20)]
