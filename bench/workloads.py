"""The benchmark's workloads: the CLI ops each one runs, built from a seed.

A seed only permutes the ops, draws the oracle weights and jitters N inside
fixed strata, so the work of a job (counted by ``work_proxy``) stays within a
few percent across seeds.
Every op is one ``pbt_recycling.cli.run`` call with plain CLI flags; the
program sees only the generated argv and the files written here.

This module also holds the benchmark's own partition enumerator and counter
and the reference checks, so that nothing here depends on the package under
test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("curve", "cold_points", "oracle_verify")

#: The figure-data job: ``sweep --dim d --ports-min 2 --ports-max M`` per (d, M),
#: in this order.  It is fixed: the d = 4 sweep reuses frames the d = 3 sweep
#: cached, so shuffling would make the work depend on the seed.  Sizes are
#: chosen so the two sweeps cost about the same at the seed.
CURVE_SWEEPS = ((3, 90), (4, 56))

#: ``cold_points`` strata: each op draws N = center + jitter, |jitter| <= JITTER.
#: Centers of all kinds are at least 6 apart, so any two ops differ in N by at
#: least 4 and never share a frame of N - 1 or N boxes: no op warms a cache that
#: another op reads.  The strata put the op median among three ops of about
#: 100 ms and p90 among four of about 400 ms, away from gaps in the latencies.
JITTER = 1
#: cold_points op kinds: kind -> (reference quantity, d).
COLD_KINDS = {
    "frec_d2": ("frec", 2),
    "frec_d3": ("frec", 3),
    "frec_d4": ("frec", 4),
    "frec_optimal_d2": ("frec_optimal", 2),
    "resource_fidelity_d2": ("resource_fidelity", 2),
}
COLD_STRATA = {
    "frec_d2": (260, 520, 780),
    "frec_d3": (34, 70, 106, 142, 178),
    "frec_d4": (16, 28, 40, 52, 64, 76),
    "frec_optimal_d2": (120, 330, 600, 870, 1140),
    "resource_fidelity_d2": (150, 400, 650, 900),
}

#: ``oracle_verify`` grid: (N, d) -> ops per job, dense dimension d^(N+1) <= 256.
#: A point's ops run back to back, so each repeat reuses the oracle's own
#: measurement cache, as a user's second call in one process would, whatever
#: the order.  The counts put the op median inside the cluster of (2, 4) and
#: (4, 2) ops (about 20 ms) and p90 inside the (3, 4) ops, away from the gaps
#: between clusters, so both stay put when single latencies move.
ORACLE_GRID = {
    (2, 2): 3, (3, 2): 3, (4, 2): 3, (5, 2): 2,
    (2, 3): 3, (3, 3): 2, (4, 3): 1,
    (2, 4): 3, (3, 4): 3,
    (2, 5): 2, (2, 6): 2,
}

#: Fewest jobs per run: cold_points (23 ops) and oracle_verify (27 ops) need
#: 100 ops for op_tail_ms (p90) to leave ten ops beyond it.
MIN_JOBS = {"curve": 3, "cold_points": 5, "oracle_verify": 4}

#: Percentile reported as op_tail_ms.
TAIL_PERCENTILE = 90

#: Relative agreement demanded of a JSON value with its reference.
JSON_REL_TOL = 1e-12

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, what it computes, and how to check it."""

    kind: str
    ports: int
    dim: int
    argv: tuple[str, ...]
    out_path: str | None = None  # sweep CSV written by the op


# -- the benchmark's own partition enumeration -----------------------------------

def frames(n: int, max_height: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_height parts, descending lexicographic."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        rows_left = max_height - len(acc)
        # prune: the remaining boxes must fit in rows_left rows of width <= largest
        if rows_left == 0 or remaining > largest * rows_left:
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, max(n, 1), [])
    return out


def count_frames(n: int, max_height: int) -> int:
    """Number of partitions of n with at most max_height parts (= parts of size <= max_height)."""
    ways = [1] + [0] * n
    for part in range(1, max_height + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


# -- op lists ---------------------------------------------------------------------

def cold_point_draws(seed: int) -> list[tuple[str, int]]:
    """(kind, N) of every cold_points op, in run order."""
    rng = random.Random(seed)
    draws = [
        (kind, center + rng.randint(-JITTER, JITTER))
        for kind, centers in COLD_STRATA.items()
        for center in centers
    ]
    rng.shuffle(draws)
    return draws


def _cold_op(kind: str, n: int) -> Op:
    quantity, d = COLD_KINDS[kind]
    if quantity == "resource_fidelity":
        argv = ("resource-fidelity", "--ports", str(n), "--format", "json")
    elif quantity == "frec_optimal":
        argv = ("frec", "--optimal", "--dim", str(d), "--ports", str(n), "--format", "json")
    else:
        argv = ("frec", "--ports", str(n), "--dim", str(d), "--format", "json")
    return Op(kind, n, d, argv)


def _write_weights(path: Path, n: int, d: int, rng: random.Random):
    """Strictly positive random weights on every frame of n boxes, unit 2-norm."""
    support = frames(n, d)
    raw = [rng.uniform(0.25, 1.0) for _ in support]
    norm = math.sqrt(sum(x * x for x in raw))
    doc = {"N": n, "d": d, "entries": [{"partition": list(p), "v": x / norm} for p, x in zip(support, raw)]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one job, with any input files they need written to workdir."""
    rng = random.Random(seed)
    if workload == "curve":
        ops = []
        for d, m in CURVE_SWEEPS:
            out = str(workdir / f"sweep_d{d}.csv")
            argv = ("sweep", "--ports-min", "2", "--ports-max", str(m), "--dim", str(d), "--out", out)
            ops.append(Op("sweep", m, d, argv, out_path=out))
        return ops
    if workload == "cold_points":
        return [_cold_op(kind, n) for kind, n in cold_point_draws(seed)]
    if workload == "oracle_verify":
        grid = list(ORACLE_GRID)
        rng.shuffle(grid)
        points = [nd for nd in grid for _ in range(ORACLE_GRID[nd])]
        ops = []
        for i, (n, d) in enumerate(points):
            vfile, vprev = workdir / f"v{i}_n{n}_d{d}.json", workdir / f"v{i}_n{n - 1}_d{d}.json"
            _write_weights(vfile, n, d, rng)
            _write_weights(vprev, n - 1, d, rng)
            argv = (
                "oracle", "verify", "--optimal", "--ports", str(n), "--dim", str(d),
                "--vfile", str(vfile), "--vfile-prev", str(vprev), "--format", "json",
            )
            ops.append(Op("oracle_verify", n, d, argv))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def work_proxy(workload: str, seed: int) -> int:
    """Frames of N - 1 and N boxes (height <= d) that a job's closed forms touch."""
    if workload == "curve":
        points = [(n, d) for d, m in CURVE_SWEEPS for n in range(2, m + 1)]
    elif workload == "cold_points":
        points = [(n, COLD_KINDS[kind][1]) for kind, n in cold_point_draws(seed)]
    elif workload == "oracle_verify":
        points = [nd for nd, k in ORACLE_GRID.items() for _ in range(k)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return sum(count_frames(n - 1, d) + count_frames(n, d) for n, d in points)


def reference_points() -> dict[str, set[tuple[int, int]]]:
    """Every (N, d) that curve and cold_points can draw, per reference quantity."""
    pts: dict[str, set[tuple[int, int]]] = {"frec": set(), "frec_optimal": set(), "resource_fidelity": set()}
    for d, m in CURVE_SWEEPS:
        pts["frec"].update((n, d) for n in range(2, m + 1))
    for kind, centers in COLD_STRATA.items():
        quantity, d = COLD_KINDS[kind]
        for c in centers:
            pts[quantity].update((c + j, d) for j in range(-JITTER, JITTER + 1))
    return pts


# -- reference checks -------------------------------------------------------------

def load_references(path: Path = REFERENCES_PATH) -> dict[str, dict[tuple[int, int], float]]:
    """Reference values keyed by quantity, then (N, d)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {
        q: {(int(n), int(d)): float(v) for d, by_n in per_d.items() for n, v in by_n.items()}
        for q, per_d in doc["values"].items()
    }


def json_value_ok(value: float, ref: float) -> bool:
    """A JSON fidelity agrees with its reference to JSON_REL_TOL relative."""
    return abs(value - ref) <= JSON_REL_TOL * abs(ref)


def csv_value_ok(text: str, ref: float) -> bool:
    """A 12-significant-digit CSV value agrees with its reference within its rounding.

    Half a unit in the 12th digit, plus JSON_REL_TOL for the computation itself.
    """
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 11)
    return abs(float(text) - ref) <= 0.5 * unit + JSON_REL_TOL * abs(ref)


def _check_json_point(op: Op, stdout: str, refs) -> str | None:
    quantity = COLD_KINDS[op.kind][0]
    doc = json.loads(stdout)
    if (doc.get("ports"), doc.get("dim")) != (op.ports, op.dim):
        return f"answered for ({doc.get('ports')}, {doc.get('dim')})"
    ref = refs[quantity][(op.ports, op.dim)]
    if not json_value_ok(doc["value"], ref):
        return f"value {doc['value']!r} vs reference {ref!r}"
    return None


def _check_sweep(op: Op, refs) -> str | None:
    lines = Path(op.out_path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "N,d,frec,frec_opt,lower_bound_qubit":
        return f"bad header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(n) for n in range(2, op.ports + 1)]:
        return "rows do not cover N = 2..M in order"
    for n_text, d_text, value, opt_value, bound in rows:
        if d_text != str(op.dim) or opt_value or bound:
            return f"bad row for N={n_text}"
        ref = refs["frec"][(int(n_text), op.dim)]
        if not csv_value_ok(value, ref):
            return f"N={n_text}: {value} vs reference {ref!r}"
    return None


def check(op: Op, exit_code, stdout: str, refs) -> str | None:
    """None when the op's output is correct, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        if op.kind == "sweep":
            return _check_sweep(op, refs)
        if op.kind == "oracle_verify":
            doc = json.loads(stdout)
            return None if doc.get("all_passed") is True else "oracle checks failed"
        return _check_json_point(op, stdout, refs)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e!r}"
