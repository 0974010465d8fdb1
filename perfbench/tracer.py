"""Span recording for traced benchmark jobs, and the per-layer arithmetic.

Spans are recorded from outside the program: `Tracer.install` replaces each
roarbench function named in PATCHES, at the module attribute its callers look
it up through, with a wrapper that records a span around the call. Nothing in
roarbench changes. Spans are kept in memory and written out when the job ends.

A layer is a module under src/roarbench/. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "config", "datasets", "toydata", "experiment", "estimators",
          "nn", "pipeline", "validation")

ROOT_SPAN = "bench.job"  # the measured window of one job
DIGEST_SPAN = "trace.digest"  # the tracer's own hashing, kept out of layers

# (module callers look the name up in, attribute, span name). Several callers
# import a name from another module, so the wrapper goes where it is looked
# up: experiment.compute_estimates, estimators.input_gradient, and nn.train
# as seen by nn.mlp_trainer all resolve through these attributes.
PATCHES = (
    ("roarbench.cli", "main", "cli.main"),
    ("roarbench.cli", "parse_config", "config.parse_config"),
    ("roarbench.datasets", "generate_bars", "datasets.generate_bars"),
    ("roarbench.toydata", "generate_toy", "toydata.generate_toy"),
    ("roarbench.experiment", "build_context", "experiment.build_context"),
    ("roarbench.experiment", "train_baseline", "experiment.train_baseline"),
    ("roarbench.experiment", "compute_all_estimates",
     "experiment.compute_all_estimates"),
    ("roarbench.experiment", "save_estimates", "experiment.save_estimates"),
    ("roarbench.experiment", "load_estimates", "experiment.load_estimates"),
    ("roarbench.experiment", "run_grid", "experiment.run_grid"),
    ("roarbench.experiment", "collect_grid", "experiment.collect_grid"),
    ("roarbench.experiment", "write_report", "experiment.write_report"),
    ("roarbench.experiment", "compute_estimates",
     "estimators.compute_estimates"),
    ("roarbench.estimators", "input_gradient", "nn.input_gradient"),
    ("roarbench.nn", "train", "nn.train"),
    ("roarbench.nn", "fit_least_squares", "nn.fit_least_squares"),
    ("roarbench.pipeline", "rank_features", "pipeline.rank_features"),
    ("roarbench.pipeline", "make_modified_dataset",
     "pipeline.make_modified_dataset"),
    ("roarbench.pipeline", "generate_modified_datasets",
     "pipeline.generate_modified_datasets"),
    ("roarbench.pipeline", "save_modified_dataset",
     "pipeline.save_modified_dataset"),
    ("roarbench.pipeline", "run_roar", "pipeline.run_roar"),
    ("roarbench.pipeline", "run_deletion_metric",
     "pipeline.run_deletion_metric"),
    ("roarbench.validation", "run_toy_validation",
     "validation.run_toy_validation"),
)
SPAN_NAMES = frozenset(name for _, _, name in PATCHES)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _model_arrays(model) -> list:
    return [a for layer in model.layers
            for a in (getattr(layer, "weight", None),
                      getattr(layer, "bias", None)) if a is not None]


# Per-call attributes the metrics need, taken from the bound arguments.
def _describe_estimates(a):
    return {"id": a["estimator_id"], "samples": len(a["x"]),
            "key": _digest(a["estimator_id"], *_model_arrays(a["model"]),
                           a["x"], a["targets"])}


def _describe_fit(a):
    ds = a["dataset"]
    return {"key": _digest(ds.train_x, ds.train_y, a["ridge"], a["fit_bias"])}


DESCRIBE = {
    "estimators.compute_estimates": _describe_estimates,
    "nn.fit_least_squares": _describe_fit,
    "nn.train": lambda a: {"steps": a["config"].steps},
    "pipeline.save_modified_dataset": lambda a: {"dir": a["directory"]},
}


class Tracer:
    """Spans of one job: (name id, start, end, parent index, raised)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        span = [nid, 0.0, 0.0, self._stack[-1], 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        describe = DESCRIBE.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if describe is not None:
                with self.span(DIGEST_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = describe(bound.arguments)
            span = self._open(nid)
            if attrs is not None:
                self.attrs[len(self.spans) - 1] = attrs
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                self._close(span)

        return traced

    def install(self):
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def table(self) -> "SpanTable":
        rows = np.array([s[:3] for s in self.spans], dtype=np.float64
                        ).reshape(-1, 3)
        return SpanTable(
            names=list(self.names), name=rows[:, 0].astype(np.int64),
            start=rows[:, 1], end=rows[:, 2],
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            raised=np.array([s[4] for s in self.spans], dtype=bool),
            attrs=dict(self.attrs))


class SpanTable:
    """Columnar spans plus the per-layer metric arithmetic."""

    def __init__(self, names, name, start, end, parent, raised, attrs):
        self.names, self.name = names, name
        self.start, self.end, self.parent = start, end, parent
        self.raised, self.attrs = raised, attrs
        self.duration = end - start
        self.self_time = self_times(start, end, parent)

    def write(self, path: str, run_id: str):
        np.savez(path, names=np.array(self.names), name=self.name,
                 start=self.start, end=self.end, parent=self.parent,
                 raised=self.raised, run=np.full(len(self.name), run_id),
                 attrs=json.dumps({str(k): v for k, v in self.attrs.items()}))

    def select(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(span_name))

    def layer_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names)
               if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def metric(self, metric: str) -> float:
        """Value of a per-layer metric named `<span>.<stat>`, `<layer>.self_s`,
        `estimators.<id>.ms_per_sample` or `trace.unattributed_s`. A span
        that never ran has 0 calls and 0 time; its ratios read 0."""
        head, _, stat = metric.rpartition(".")
        if metric == "trace.unattributed_s":
            return float(self.self_time[self.select(ROOT_SPAN)].sum())
        if head in LAYERS and stat == "self_s":
            return self.layer_self_s(head)
        if stat == "ms_per_sample" and head.startswith("estimators."):
            estimator_id = head.split(".", 1)[1]
            idx = [i for i in self.select("estimators.compute_estimates")
                   if self.attrs[i]["id"] == estimator_id]
            samples = sum(self.attrs[i]["samples"] for i in idx)
            return _ratio(1e3 * self.duration[idx].sum(), samples)
        if head not in SPAN_NAMES:
            raise KeyError(f"no rule computes per-layer metric {metric!r}")
        idx = self.select(head)
        busy = float(self.duration[idx].sum())
        if stat == "calls":
            return float(len(idx))
        if stat == "busy_s":
            return busy
        if stat == "self_s":
            return float(self.self_time[idx].sum())
        if stat in ("p50_ms", "p95_ms"):
            q = 50 if stat == "p50_ms" else 95
            return float(np.percentile(self.duration[idx], q)) * 1e3 \
                if len(idx) else 0.0
        if stat == "ms_per_step":
            steps = sum(self.attrs[i]["steps"] for i in idx)
            return _ratio(1e3 * busy, steps)
        if stat == "ms_per_call":
            return _ratio(1e3 * busy, len(idx))
        if stat == "us_per_call":
            return _ratio(1e6 * busy, len(idx))
        if stat == "diverged":
            return float(self.raised[idx].sum())
        if stat == "unique_frac":
            keys = {self.attrs[i]["key"] for i in idx}
            return _ratio(len(keys), len(idx))
        if stat == "mb_written":
            return sum(_dir_bytes(self.attrs[i]["dir"]) for i in idx) / 1e6
        raise KeyError(f"no rule computes per-layer metric {metric!r}")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _dir_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.is_file())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the length of the union of its children's
    intervals, clipped to its own interval."""
    out = np.asarray(end, dtype=np.float64) - start
    starts, ends = list(map(float, start)), list(map(float, end))
    children = defaultdict(list)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        covered, reach = 0.0, starts[p]
        for k in sorted(kids, key=starts.__getitem__):
            a, b = max(starts[k], reach), min(ends[k], ends[p])
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out
