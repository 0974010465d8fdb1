"""Guards the hooks `perfbench/run.py --trace 1` relies on: every function
the tracer wraps must still exist where its callers look it up, and
`compute_estimates` must keep the parameters the tracer reads from each
call. The benchmark files are only read here."""

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
