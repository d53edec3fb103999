"""Per-layer tracing from outside the program.

Each layer is one module of the package.  A traced run replaces the layer's
public functions, in every package namespace that bound them, with wrappers
that time the call and count its work.  A layer's self time is its spans'
duration minus the time of the wrapped calls nested inside them, so the
self times of all layers add up to the traced op time they cover.

``FAMILIES`` is also the benchmark's layer-to-metric map: which public calls
each per-layer metric wraps, and which end-to-end metric it should move on
which workload.  Names listed here that the package no longer has are
skipped, so removing a function does not break the benchmark.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from typing import Callable

LAYERS = ("partitions", "characters", "recycling", "optimal", "oracle", "cli")


def _one(name, args, result) -> int:
    return 1


def _frames_returned(name, args, result) -> int:
    return len(result) if hasattr(result, "__len__") else 0  # a generator is not consumed here


def _entries_built(name, args, result) -> int:
    # Only the constructor counts, so a v_qubit call that builds one set is not counted twice.
    return len(args[0].entries) if name == "VCoefficients.__init__" else 0


def _bytes_returned(name, args, result) -> int:
    items = result if isinstance(result, tuple) else (result,)
    return sum(getattr(getattr(item, "matrix", None), "nbytes", 0) for item in items)


@dataclass(frozen=True)
class Family:
    """Public calls of one layer that share a time metric and a work count."""

    layer: str
    names: tuple[str, ...]
    time_metric: str
    count_metric: str | None
    count: Callable
    moves: str


FAMILIES = (
    Family("partitions", ("partitions_bounded",),
           "partitions.enumerate_s", "partitions.frames", _frames_returned,
           "job_s on curve; small on cold_points; about 0 on oracle_verify"),
    Family("partitions", ("dim_irrep", "mult_schur_weyl", "dims", "ln_dim_irrep", "ln_mult_schur_weyl",
                          "theta_of", "theta_dim"),
           "partitions.exact_s", "partitions.exact_calls", _one,
           "op_tail_ms on cold_points (d = 2 bigints); job_s on curve"),
    Family("partitions", ("add_box", "remove_box"),
           "partitions.add_box_s", "partitions.add_box_calls", _one,
           "job_s on curve"),
    Family("recycling", ("frec", "frec_qubit", "trace_sqrt_povm_signal", "trace_sqrt_povm_signal_qubit",
                         "srm_eigenvalue", "povm_block_factor"),
           "recycling.sum_s", "recycling.calls", _one,
           "job_s on curve; op_p50_ms on cold_points"),
    Family("optimal", ("v_qubit", "v_qubit_analytic", "v_qubit_numeric", "VCoefficients.__init__",
                       "parse_v_coefficients", "load_v_coefficients"),
           "optimal.weights_s", "optimal.weights_entries", _entries_built,
           "op_tail_ms on cold_points; op_p50_ms on oracle_verify; 0 on curve"),
    Family("optimal", ("frec_optimal", "frec_optimal_qubit", "resource_state_fidelity"),
           "optimal.sum_s", "optimal.calls", _one,
           "op_p50_ms on cold_points"),
    Family("oracle", ("signal_state", "rho_operator", "permutation_operator", "young_projector",
                      "build_optimizing_operator", "srm_povm"),
           "oracle.build_s", "oracle.build_bytes", _bytes_returned,
           "job_s and peak_rss_mb on oracle_verify; 0 elsewhere"),
    Family("oracle", ("sqrt_psd", "pinv_sqrt_psd", "rho_spectrum_report"),
           "oracle.eig_s", None, _one,
           "job_s on oracle_verify"),
    Family("oracle", ("verify_suite",),
           "oracle.verify_s", None, _one,
           "op_tail_ms on oracle_verify"),
    Family("oracle", ("frec_oracle", "frec_optimal_oracle"),
           "oracle.fidelity_s", None, _one,
           "op_tail_ms on oracle_verify"),
    Family("characters", ("character",),
           "characters.character_s", "characters.character_calls", _one,
           "job_s on oracle_verify"),
    Family("cli", ("run",),
           "cli.self_s", "cli.calls", _one,
           "op_p50_ms on cold_points and oracle_verify"),
)

#: Every per-layer metric a traced run reports, besides trace.overhead_s.
METRIC_NAMES = tuple(
    [m for f in FAMILIES for m in (f.time_metric, f.count_metric) if m] + [f"{layer}.errors" for layer in LAYERS]
)


class Tracer:
    """Self time, work counts and escaping exceptions per layer, for one process."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.skipped: list[str] = []
        self._stack: list[list] = []  # [family, time spent in nested spans]

    def _wrap(self, family: Family, name: str, fn):
        stack, totals = self._stack, self.totals

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [family, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once, where it leaves the layer
                if len(stack) < 2 or stack[-2][0].layer != family.layer:
                    totals[f"{family.layer}.errors"] += 1
                raise
            finally:
                span = time.perf_counter() - start
                stack.pop()
                totals[family.time_metric] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if family.count_metric:
                totals[family.count_metric] += family.count(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every listed public name in every loaded package module."""
        package = {k: m for k, m in sys.modules.items() if k == "pbt_recycling" or k.startswith("pbt_recycling.")}
        for family in FAMILIES:
            home = package.get(f"pbt_recycling.{family.layer}")
            for name in family.names:
                owner_name, _, method = name.partition(".")
                original = getattr(home, owner_name, None)
                if method:
                    owner, original = original, getattr(original, method, None)
                if original is None:
                    self.skipped.append(name)
                    continue
                traced = self._wrap(family, name, original)
                if method:
                    setattr(owner, method, traced)
                    continue
                for module in package.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def metrics(self) -> dict[str, float]:
        return {name: self.totals.get(name, 0) for name in METRIC_NAMES}
