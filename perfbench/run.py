#!/usr/bin/env python3
"""roarbench benchmark.

    python3 perfbench/run.py --workload bars-grid --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. Runs the workload's job again and again in
a closed loop (one caller; the next job starts when the previous one has
ended) for about --seconds seconds. Each job is a fresh single-threaded child
process (perfbench/child.py) with one BLAS thread. A job's outputs are
checked, and every job after the first must reproduce the first job's
outputs byte for byte.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the jobs. --trace 1 alternates untraced and traced jobs and reports the
per-layer metrics, as medians over the traced jobs; trace.overhead_s is the
traced median wall time minus the untraced one.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The full result
set, with the environment it was measured in, is written to
.perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
JOB_TIMEOUT_S = 150
# Times are reported at a reference machine speed. The speed of the same
# code on a shared 2-core machine drifts by up to a quarter over minutes, so
# each job times a fixed reference loop (child.reference_loop_s) before,
# during and after its measured window, and its times are scaled by
# REFERENCE_S / (the loop's median time). REFERENCE_S is a typical median on
# the 2.1 GHz Xeon vCPUs the benchmark was built on, so scaled times read
# close to seconds there. Unscaled times are kept in the result set.
REFERENCE_S = 0.004
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_job(workload: str, seed: int, trace: bool, size: str,
            job_dir: str) -> dict | None:
    """One job in a fresh child; None if it crashed, timed out or printed no
    result."""
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    spawned = time.monotonic_ns()
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--job-dir", job_dir, "--trace", str(int(trace)),
            "--size", size, "--spawned-ns", str(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"job {job_dir} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"job {job_dir} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def account(wl: workloads.Workload, params: dict, job: dict | None,
            first: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure notes) for one job: its retrainings, its
    output checks and, against an earlier job, one determinism comparison
    per output. A job with no result fails every operation it would have
    had."""
    compared = len(wl.outputs) if first is not None else 0
    if job is None:
        n = wl.retrainings(params) + wl.n_checks(params) + compared
        return n, n, ["job produced no result"]
    retrained, diverged = job["retrainings"]
    notes = [f"{name}: {detail}" for name, ok, detail in job["checks"]
             if not ok]
    failed = diverged + len(notes)
    if diverged:
        notes.append(f"{diverged} of {retrained} retrainings diverged")
    if first is not None:
        for name in wl.outputs:
            digest = job["digests"].get(name)
            if digest is None or digest != first["digests"].get(name):
                failed += 1
                notes.append(f"determinism: {name} differs from the first job")
    return retrained + len(job["checks"]) + compared, failed, notes


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def scaled(job: dict, key: str) -> float:
    """A job's time at the reference machine speed."""
    return job[key] * REFERENCE_S / job["reference_s"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    spec = load_spec()
    wl = workloads.WORKLOADS[workload]
    params = wl.params(size)
    started = time.perf_counter()
    jobs = run_jobs(workload, seed, seconds, trace, size)

    attempted = failed = 0
    notes = []
    first = None
    for _, job in jobs:
        a, f, n = account(wl, params, job, first)
        attempted, failed = attempted + a, failed + f
        notes += n
        first = first or job

    done = [(traced, job) for traced, job in jobs if job is not None]
    wanted = spec["per_layer" if trace else "end_to_end"]
    samples = (layer_samples(done) if trace
               else end_to_end_samples(done, wl.cells(params)))
    spreads = {name: quartiles(vals) for name, vals in samples.items()
               if vals}
    result = {
        "correct": failed == 0 and all(m["name"] in spreads for m in wanted),
        "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": spreads.get(m["name"], (0, 0, 0))[1],
                                "unit": m["unit"]} for m in wanted},
    }

    env = dict(done[0][1]["env"]) if done else {}
    env["git_revision"] = git_revision()
    lines = [
        f"# workload {workload} (seed {seed}, trace {int(trace)}): "
        f"{len(jobs)} jobs in {time.perf_counter() - started:.1f} s, "
        f"{failed} of {attempted} operations failed "
        f"(failed_frac {failed / max(attempted, 1):.4f})",
        f"# cells per job {wl.cells(params)}",
        "# env " + json.dumps(env, sort_keys=True),
    ]
    if done:
        lines.append("# unscaled medians: " + ", ".join(
            f"{key} {statistics.median(j[key] for _, j in done):.4g} s"
            for key in ("wall_s", "setup_s", "reference_s")))
    lines += [f"# failed: {note}" for note in notes]
    for m in wanted:
        if m["name"] in spreads:
            q1, med, q3 = spreads[m["name"]]
            lines.append(f"{m['name']} = {med:.6g} {m['unit']} (median of "
                         f"{len(samples[m['name']])}, quartiles {q1:.6g} .. "
                         f"{q3:.6g})")
        else:
            lines.append(f"{m['name']} = missing")
    traced_self = [job["layer_self_s"] for traced, job in done if traced]
    if traced_self:
        lines.append("# layer self time, first traced job: " + ", ".join(
            f"{layer} {s:.3f} s" for layer, s in
            sorted(traced_self[0].items(), key=lambda kv: -kv[1])))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "env": env,
              "result": result, "notes": notes,
              "jobs": [{"traced": t, **{k: v for k, v in (j or {}).items()
                                        if k not in ("env", "checks")}}
                       for t, j in jobs]}
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(WORK, "results", name), "w") as f:
        json.dump(record, f, indent=1)
    return result, lines


def run_jobs(workload: str, seed: int, seconds: float, trace: bool,
             size: str) -> list[tuple[bool, dict | None]]:
    """The closed loop: (traced, result) per job. Starts no job that would
    end past the deadline, judged by the longest job so far, but runs at
    least two, so the determinism check always has a pair. With tracing,
    untraced and traced jobs alternate."""
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    # Compile roarbench's bytecode before the first timed set-up.
    subprocess.run([sys.executable, "-c", "import roarbench.cli"], cwd=ROOT,
                   env=child_env(), stdin=subprocess.DEVNULL,
                   timeout=JOB_TIMEOUT_S)
    deadline = time.perf_counter() + seconds
    jobs = []
    longest = 0.0
    while len(jobs) < 2 or time.perf_counter() + longest <= deadline:
        traced = trace and len(jobs) % 2 == 1
        job_dir = os.path.join(work, f"job{len(jobs)}")
        t0 = time.perf_counter()
        jobs.append((traced, run_job(workload, seed, traced, size, job_dir)))
        longest = max(longest, time.perf_counter() - t0)
        # The digests stand for the outputs from here on.
        shutil.rmtree(os.path.join(job_dir, "out"), ignore_errors=True)
    return jobs


def end_to_end_samples(done: list, cells: int) -> dict[str, list[float]]:
    return {
        "wall_s": [scaled(j, "wall_s") for _, j in done],
        "setup_s": [scaled(j, "setup_s") for _, j in done],
        "cells_per_s": [cells / scaled(j, "wall_s") for _, j in done],
        "peak_rss_mb": [j["peak_rss_mb"] for _, j in done],
    }


def layer_samples(done: list) -> dict[str, list[float]]:
    traced = [job for t, job in done if t]
    untraced = [job for t, job in done if not t]
    samples = {name: [j["layers"][name] for j in traced]
               for name in (traced[0]["layers"] if traced else ())}
    if traced and untraced:
        samples["trace.overhead_s"] = [
            statistics.median(scaled(j, "wall_s") for j in traced)
            - statistics.median(scaled(j, "wall_s") for j in untraced)]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="roarbench benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "roarbench", "cli.py")):
        print(f"error: no roarbench sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
