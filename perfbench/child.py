"""One benchmark job: a fresh process that imports roarbench from the
checkout's src/, parses the generated config, runs the workload's subcommands,
checks the outputs, and prints one JSON result line.

Started by run.py with one BLAS thread; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or 'unknown'."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def reference_loop_s(iterations: int = 250) -> float:
    """Time of a fixed loop of the operations the workloads spend their time
    in: a one-sample forward pass, a 32-row product, a 144-score ranking and
    interpreter work. It tracks how fast this machine runs at the moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w, v = rng.random(144), rng.random((144, 32)), rng.random((32, 2))
    batch = rng.random((32, 144))
    start = time.perf_counter()
    for _ in range(iterations):
        h = np.maximum(x @ w, 0.0)
        (h @ v)[0] + sum(range(40))
        np.maximum(batch @ w, 0.0)
        np.argsort(-x, kind="stable")
    return time.perf_counter() - start


class SpeedSampler:
    """Times the reference loop every `interval` seconds while a job runs,
    from a SIGALRM handler in the job's own thread. The samples show how
    fast the machine ran during the job; the caller takes their time out of
    the job's wall time. Without an interval it samples nothing."""

    def __init__(self, interval: float | None):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(reference_loop_s())

    def __enter__(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() just before the spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from roarbench import cli, config

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"roarbench imported from {cli.__file__}, "
                         f"not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    params = workload.params(args.size)
    text = workload.config_text(params, args.seed)
    config.parse_config(text)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading taken
    # before the spawn is comparable with this one.
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    config_path = os.path.join(args.job_dir, "config.ini")
    out_dir = os.path.join(args.job_dir, "out")
    with open(config_path, "w") as f:
        f.write(text)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    before = reference_loop_s()
    # Traced jobs sample only before and after, outside every layer span.
    with SpeedSampler(None if args.trace else 0.1) as sampler:
        start = time.perf_counter()
        statuses, log, checks, digests = _run_and_check(
            workload, params, config_path, out_dir, tracer)
    wall_s = time.perf_counter() - start - sum(sampler.samples)
    speed = [before, *sampler.samples, reference_loop_s()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    retrainings = workload.retrainings(params)
    diverged = workloads.failed_retrainings(out_dir) if retrainings else 0
    if any(status != 0 for status in statuses.values()):
        # A subcommand that exits non-zero fails every operation of the job.
        checks = [(name, False, detail) for name, _, detail in checks]
        diverged = retrainings

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "reference_s": statistics.median(speed), "reference_samples_s": speed,
        "checks": checks, "retrainings": [retrainings, diverged],
        "digests": digests, "env": environment(),
    }
    with open(os.path.join(args.job_dir, "cli.log"), "w") as f:
        f.write(log)
    if tracer is not None:
        table = tracer.table()
        table.write(os.path.join(args.job_dir, "spans.npz"),
                    run_id=os.path.basename(args.job_dir))
        result["layers"] = {m: table.metric(m) for m in _per_layer_names()
                            if m != "trace.overhead_s"}
        result["layer_self_s"] = {layer: table.layer_self_s(layer)
                                  for layer in tracing.LAYERS}
    print(json.dumps(result), flush=True)
    return 0


def _run_and_check(workload, params, config_path, out_dir, tracer):
    """Run the subcommands with their output captured, then check it. With a
    tracer, the whole window is the root span and the checks are a span of
    the benchmark's own, so neither counts as unattributed program time."""
    import workloads

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    from roarbench import cli

    log = io.StringIO()
    statuses = {}
    with span("bench.job"):
        if tracer:
            tracer.install()
        try:
            with contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                for command in workload.commands:
                    statuses[command] = cli.main(
                        [command, "--config", config_path,
                         "--output", out_dir])
        finally:
            if tracer:
                tracer.uninstall()
        with span("bench.check"):
            checks = workload.check(params, out_dir, statuses,
                                    log.getvalue())
            digests = workloads.digests(workload, out_dir)
    return statuses, log.getvalue(), checks, digests


def _per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
