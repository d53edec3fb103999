"""One job of a workload in a fresh process, so the package's caches start cold.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --spawned-at T --workdir DIR

Imports the package from the checkout's ``src``, writes the job's inputs,
loads the references, then runs the ops one after another (one caller,
closed loop), times the yardstick loop in the gaps between them (see run.py)
and checks every output afterwards.  Prints one JSON record as its last
line.  ``--spawned-at`` is the CLOCK_MONOTONIC reading taken by the parent
just before it started this process, so ``setup_s`` includes interpreter
start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: Yardstick samples per job, taken in the gaps before, between and after the ops.
YARD_SAMPLES = 48


def yardstick() -> float:
    """Seconds for a fixed pure-Python loop: the CPU speed this process sees right now."""
    start = _now()
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    return _now() - start


def run_op(cli, op) -> tuple[float, object, str]:
    """(seconds, exit code, stdout) of one CLI call; an exception is its repr as the code."""
    out, err = io.StringIO(), io.StringIO()
    start = _now()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.argv))
    except SystemExit as e:
        code = e.code
    except Exception as e:  # an op that raises is a failed op, not a failed benchmark
        code = repr(e)
    return _now() - start, code, out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import pbt_recycling
    from pbt_recycling import cli

    if not Path(pbt_recycling.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {pbt_recycling.__file__}, not the checkout's src", file=sys.stderr)
        return 2
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, args.workdir)
    refs = workloads.load_references()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    setup_end = _now()
    per_gap = -(-YARD_SAMPLES // (len(ops) + 1))

    def gap() -> list[float]:
        # Each op starts from a collected heap, as a lone query in a fresh process
        # does, so a collection that earlier ops made due cannot land in a later
        # op: op latencies would otherwise depend on the op order, i.e. the seed.
        gc.collect()
        return [yardstick() for _ in range(per_gap)]

    gaps = [gap()]
    results = []
    for op in ops:
        results.append(run_op(cli, op))
        gaps.append(gap())

    failures = []
    for op, (_, code, stdout) in zip(ops, results):
        why = workloads.check(op, code, stdout, refs)
        if why is not None:
            failures.append(f"{' '.join(op.argv[:3])} N={op.ports} d={op.dim}: {why}")
    record = {
        "setup_s": setup_end - args.spawned_at,
        "setup_yard_s": statistics.median(gaps[0]),
        "op_s": [seconds for seconds, _, _ in results],
        "op_yard_s": [statistics.median(before + after) for before, after in zip(gaps, gaps[1:])],
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["skipped_names"] = tracer.skipped
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
