"""Guards the hooks `perfbench/run.py --trace 1` relies on: every function
the tracer wraps must still exist where its callers look it up, and
`compute_estimates` must keep the parameters the tracer reads from each
call, as must `nn.train`, for one dataset and for a dataset stack. The
benchmark files are only read here."""

import importlib
import importlib.util
import inspect
import os

import numpy as np

from roarbench import experiment, nn

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


def test_train_binds_described_parameters():
    tracer = load_tracer()
    signature = inspect.signature(nn.train)
    assert "config" in signature.parameters
    # Bind a real stacked call the way the tracer does and describe it.
    rng = np.random.default_rng(0)
    dataset = nn.ArrayDataset(rng.standard_normal((6, 3)), np.arange(6) % 2,
                              rng.standard_normal((4, 3)), np.arange(4) % 2)
    bound = signature.bind([3, 4, 2], dataset,
                           nn.TrainConfig(steps=7, batch_size=2), [0, 1])
    bound.apply_defaults()
    assert tracer.DESCRIBE["nn.train"](bound.arguments) == {"steps": 7}


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
