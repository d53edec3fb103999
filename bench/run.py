#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload curve --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  The run repeats the workload's job, each time in a fresh worker
process (bench/worker.py), until ``--seconds`` have passed and at least
``workloads.MIN_JOBS`` jobs are done.  One caller, closed loop, no threads:
workers run one at a time and BLAS is held to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
jobs of set-up time, job time and peak RSS, and the median and p90 of all op
latencies.  ``--trace 1`` alternates untraced and traced jobs and reports
the per-layer metrics (medians over traced jobs) and ``trace.overhead_s``,
the traced minus the untraced median job time.

Times are reported at a reference CPU speed.  On a shared machine the speed
a process gets drifts by up to half within minutes, each CPU on its own, far
more than the changes the benchmark must resolve.  So each job is pinned to
the CPU that runs a fixed pure-Python loop (the yardstick) fastest just
before it, the worker times the yardstick before, between and after its
ops, and each op latency is scaled by YARD_REF_S / (median yardstick time on
either side of it), set-up time by the samples right after set-up.  The
unscaled times are in the detail line.

The second-to-last stdout line is a JSON record of provenance and detail;
the last line is the result: correct, attempted, failed and metrics.
Exits non-zero without a result when the package source is missing or a
worker cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from worker import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: No new job starts after this many seconds, whatever --seconds says.
HARD_STOP_S = 120.0
#: A run must end within this budget; a worker still busy at the end is killed.
RUN_BUDGET_S = 170.0
#: Jobs of each kind in a traced run, at least.
MIN_TRACE_JOBS = 2
#: Yardstick time of the reference CPU speed that reported times are scaled to.
YARD_REF_S = 0.009


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def pin_to_fastest_cpu(allowed: set[int]):
    """Pin this process, and so the next worker, to the CPU that runs the yardstick fastest now."""
    if len(allowed) < 2:
        return
    best = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(yardstick() for _ in range(3))
    os.sched_setaffinity(0, {min(best, key=best.get)})


def run_job(workload: str, seed: int, trace: bool, workdir: Path, timeout: float) -> dict:
    """One job in a fresh worker; its JSON record."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", str(workdir)]
    try:
        spawned = _now()
        out = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_ops(job: dict) -> list[float]:
    """The job's op latencies at the reference CPU speed."""
    return [s * YARD_REF_S / y for s, y in zip(job["op_s"], job["op_yard_s"])]


def end_to_end(jobs: list[dict]) -> dict[str, float]:
    op_ms = [1000.0 * s for job in jobs for s in scaled_ops(job)]
    return {
        "setup_s": statistics.median(job["setup_s"] * YARD_REF_S / job["setup_yard_s"] for job in jobs),
        "job_s": statistics.median(sum(scaled_ops(job)) for job in jobs),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": percentile(op_ms, workloads.TAIL_PERCENTILE),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    def value(job, name):
        raw = job["layers"][name]
        return raw * sum(scaled_ops(job)) / sum(job["op_s"]) if name.endswith("_s") else raw

    out = {name: statistics.median(value(job, name) for job in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(sum(scaled_ops(job)) for job in traced)
                               - statistics.median(sum(scaled_ops(job)) for job in untraced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pbt_recycling" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'pbt_recycling'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = ROOT / ".bench_tmp"
    rundir = tmp / f"run-{os.getpid()}"
    # a terminated run still kills and waits for its worker (subprocess.run does on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    allowed = os.sched_getaffinity(0)
    start = _now()
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            elapsed = _now() - start
            if args.trace:
                done = len(untraced) >= MIN_TRACE_JOBS and len(traced) >= MIN_TRACE_JOBS
            else:
                done = len(untraced) >= workloads.MIN_JOBS[args.workload]
            if done and elapsed >= args.seconds:
                break
            if elapsed >= HARD_STOP_S and untraced and (traced or not args.trace):
                break
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            pin_to_fastest_cpu(allowed)
            job = run_job(args.workload, args.seed, trace_this, rundir / f"job-{len(untraced) + len(traced)}",
                          timeout=max(1.0, RUN_BUDGET_S - elapsed))
            (traced if trace_this else untraced).append(job)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(rundir, ignore_errors=True)
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()

    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    jobs = untraced + traced
    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)

    def error_rate(group):
        return sum(j["failed"] for j in group) / sum(j["attempted"] for j in group) if group else None

    detail = {
        "provenance": {
            "git_commit": _git_commit(),
            "source_sha256": _source_sha256(),
            "nproc": os.cpu_count(),
            "versions": {"python": platform.python_version(),
                         **{dist: _version(dist) for dist in ("numpy", "scipy", "mpmath")}},
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "jobs": len(untraced),
        "traced_jobs": len(traced),
        "ops_per_job": jobs[0]["attempted"],
        "ops": sum(job["attempted"] for job in untraced),
        "tail_percentile": workloads.TAIL_PERCENTILE,
        "work_proxy_frames_per_job": workloads.work_proxy(args.workload, args.seed),
        "error_rate": failed / attempted,
        "error_rate_untraced": error_rate(untraced),
        "error_rate_traced": error_rate(traced),
        "unscaled_job_s": [sum(job["op_s"]) for job in untraced],
        "unscaled_job_s_traced": [sum(job["op_s"]) for job in traced],
        "unscaled_setup_s": [job["setup_s"] for job in untraced],
        "yard_s": [statistics.median(job["op_yard_s"]) for job in untraced],
        "skipped_names": traced[0]["skipped_names"] if traced else [],
        "failures": sorted({f for job in jobs for f in job["failures"]})[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
