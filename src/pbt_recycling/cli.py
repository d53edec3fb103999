"""Command-line surface: fidelities, bounds, verification, and sweep data.

Values are printed with 12 significant digits (scientific notation below
1e-4) and CSV output is byte-stable for identical flags.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 data-validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import Optional

from . import optimal as opt
from . import oracle as orc
from . import recycling as rec
from .optimal import CoefficientError, VCoefficients
from .oracle import DimensionCapError
from .partitions import frame_text, partitions_bounded
from .reports import FidelityReport

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def format_value(x: float) -> str:
    """12 significant digits; scientific notation below 1e-4."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


@dataclass(frozen=True)
class SweepRow:
    """One (N, d) point of a sweep; optional columns stay empty in the CSV."""

    ports: int
    dim: int
    value_nonoptimal: float
    value_optimal: Optional[float]
    lower_bound_qubit: Optional[float]


def _report_lines(report: FidelityReport) -> list[str]:
    return [
        f"F = {format_value(report.value)} "
        f"(method={report.method}, ports={report.ports}, dim={report.dim})"
    ]


def _emit(args, lines: list[str], payload: dict):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _write_text(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _load_weights(path: str, N: int, d: int) -> VCoefficients:
    v = opt.load_v_coefficients(path)
    if v.ports != N or v.dim != d:
        raise CoefficientError(
            f"coefficient file is for (N={v.ports}, d={v.dim}), requested (N={N}, d={d})"
        )
    return v


def _weight_pair(parser, args) -> tuple[VCoefficients, VCoefficients]:
    """Weights for N and N-1 ports: --vfile and --vfile-prev when given, else the optimal ones."""
    if bool(args.vfile) != bool(args.vfile_prev):
        parser.error("--vfile and --vfile-prev must be given together")
    N, d = args.ports, args.dim
    if N < 2:
        raise ValueError("N must be at least 2 for the optimal protocol")
    if args.vfile:
        return _load_weights(args.vfile, N, d), _load_weights(args.vfile_prev, N - 1, d)
    return opt.v_optimal(N, d), opt.v_optimal(N - 1, d)


def _cmd_frec(parser, args) -> int:
    if not args.optimal and (args.vfile or args.vfile_prev):
        parser.error("--vfile and --vfile-prev are read only with --optimal")
    if args.optimal:
        report = opt.frec_optimal(args.ports, args.dim, *_weight_pair(parser, args))
    else:
        report = rec.frec(args.ports, args.dim)
    _emit(args, _report_lines(report), report.as_dict())
    return EXIT_OK


def _sweep_rows(n_min: int, n_max: int, d: int, want_optimal: bool):
    """The rows for N = n_min..n_max; each N's optimal weights serve again as the next row's N - 1."""
    v_prev = opt.v_optimal(n_min - 1, d) if want_optimal and n_min >= 2 else None
    for N, value in zip(range(n_min, n_max + 1), rec.frec_values(n_min, n_max, d)):
        value_opt = None
        if want_optimal:
            v = opt.v_optimal(N, d)
            if N >= 2:
                value_opt = opt.frec_optimal(N, d, v, v_prev).value
            v_prev = v
        bound = rec.lower_bound_qubit(N) if d == 2 else None
        yield SweepRow(N, d, value, value_opt, bound)


def _cmd_sweep(parser, args) -> int:
    if args.ports_min < 1 or args.ports_max < args.ports_min:
        parser.error("need 1 <= --ports-min <= --ports-max")
    lines = ["N,d,frec,frec_opt,lower_bound_qubit"]
    for r in _sweep_rows(args.ports_min, args.ports_max, args.dim, args.optimal):
        lines.append(
            ",".join(
                [
                    str(r.ports),
                    str(r.dim),
                    format_value(r.value_nonoptimal),
                    format_value(r.value_optimal) if r.value_optimal is not None else "",
                    format_value(r.lower_bound_qubit) if r.lower_bound_qubit is not None else "",
                ]
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bound(parser, args) -> int:
    report = rec.frec(args.ports, args.dim)
    bound = rec.kround_lower_bound(min(report.value, 1.0), args.rounds)
    payload = {
        "f1": report.as_dict(),
        "rounds": args.rounds,
        "lower_bound": bound,
    }
    lines = _report_lines(report) + [
        f"k-round lower bound (k={args.rounds}): {format_value(bound)}"
    ]
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_resource_fidelity(parser, args) -> int:
    if args.sweep:
        if args.vfile:
            parser.error("--sweep uses the optimal qubit weights and reads no --vfile")
        if args.ports is not None:
            parser.error("--sweep reads --ports-min and --ports-max, not --ports")
        if args.format != "text":
            parser.error("--sweep writes CSV and reads no --format")
        if args.ports_min is None or args.ports_max is None:
            parser.error("--sweep requires --ports-min and --ports-max")
        if args.ports_min < 1 or args.ports_max < args.ports_min:
            parser.error("need 1 <= --ports-min <= --ports-max")
        lines = ["N,d,resource_fidelity"]
        for n in range(args.ports_min, args.ports_max + 1):
            value = opt.resource_state_fidelity(n, 2, opt.v_optimal(n, 2)).value
            lines.append(f"{n},2,{format_value(value)}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.ports_min is not None or args.ports_max is not None:
        parser.error("--ports-min and --ports-max are read only with --sweep")
    if args.out is not None:
        parser.error("--out is read only with --sweep")
    if args.vfile:
        v = opt.load_v_coefficients(args.vfile)
        if args.ports is not None and v.ports != args.ports:
            raise CoefficientError(f"coefficient file is for N={v.ports}, requested N={args.ports}")
        report = opt.resource_state_fidelity(v.ports, v.dim, v)
        _emit(args, _report_lines(report), report.as_dict())
        return EXIT_OK
    if args.ports is None:
        parser.error("--ports is required without --sweep")
    report = opt.resource_state_fidelity(args.ports, 2, opt.v_optimal(args.ports, 2))
    _emit(args, _report_lines(report), report.as_dict())
    return EXIT_OK


def _cmd_oracle_verify(parser, args) -> int:
    if not args.optimal and args.vfile_prev:
        parser.error("--vfile-prev is read only with --optimal")
    if not 0.0 <= args.tol < math.inf:
        parser.error(f"--tol must be finite and at least 0, got {args.tol!r}")
    if args.optimal:
        v, v_prev = _weight_pair(parser, args)
    elif args.vfile:
        v = _load_weights(args.vfile, args.ports, args.dim)
    else:
        v = opt.v_optimal(args.ports, args.dim)
    report = orc.verify_suite(args.ports, args.dim, tol=args.tol, v=v)

    # formula-versus-oracle comparisons at the same point
    f_closed = rec.frec(args.ports, args.dim).value
    f_oracle = orc.frec_oracle(args.ports, args.dim).value
    report.add("frec_formula_vs_oracle", abs(f_closed - f_oracle))
    if args.optimal:
        fq = opt.frec_optimal(args.ports, args.dim, v, v_prev).value
        fo = orc.frec_optimal_oracle(args.ports, args.dim, v, v_prev).value
        report.add("frec_optimal_formula_vs_oracle", abs(fq - fo))

    if args.format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.detail}]" if c.detail else ""
            print(f"{status}  {c.name}  max_deviation={c.max_deviation:.3e}{extra}")
        print(f"overall: {'PASS' if report.all_passed else 'FAIL'} (tol={report.tol:g})")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_partitions(parser, args) -> int:
    for p in partitions_bounded(args.n, args.max_height):
        print(frame_text(p))
    return EXIT_OK


def _cmd_vcoeffs(parser, args) -> int:
    v = opt.v_optimal(args.ports, 2)
    if args.out and args.out != "-":
        opt.save_v_coefficients(v, args.out)
    else:
        print(json.dumps(v.as_document(), sort_keys=True))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pbt-recycling",
        description="Recycling fidelity of the port-based teleportation resource state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_frec = sub.add_parser("frec", help="one-round recycling fidelity")
    p_frec.add_argument("--ports", type=int, required=True)
    p_frec.add_argument("--dim", type=int, required=True)
    p_frec.add_argument("--optimal", action="store_true")
    p_frec.add_argument("--vfile", help="coefficient file for N ports, with --optimal (default: optimal weights)")
    p_frec.add_argument("--vfile-prev", help="coefficient file for N-1 ports, with --vfile")
    p_frec.add_argument("--format", choices=("text", "json"), default="text")
    p_frec.set_defaults(func=_cmd_frec)

    p_sweep = sub.add_parser("sweep", help="CSV over a range of port counts")
    p_sweep.add_argument("--ports-min", type=int, required=True)
    p_sweep.add_argument("--ports-max", type=int, required=True)
    p_sweep.add_argument("--dim", type=int, required=True)
    p_sweep.add_argument("--optimal", action="store_true")
    p_sweep.add_argument("--out", help="output path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bound = sub.add_parser("bound", help="k-round lower bound")
    p_bound.add_argument("--ports", type=int, required=True)
    p_bound.add_argument("--dim", type=int, required=True)
    p_bound.add_argument("--rounds", type=int, required=True)
    p_bound.add_argument("--format", choices=("text", "json"), default="text")
    p_bound.set_defaults(func=_cmd_bound)

    p_res = sub.add_parser(
        "resource-fidelity", help="overlap of plain and rotated resource states"
    )
    p_res.add_argument("--ports", type=int)
    p_res.add_argument("--vfile", help="coefficient file, any d, not with --sweep (default: optimal qubit weights)")
    p_res.add_argument("--sweep", action="store_true")
    p_res.add_argument("--ports-min", type=int, help="first N, with --sweep")
    p_res.add_argument("--ports-max", type=int, help="last N, with --sweep")
    p_res.add_argument("--out", help="CSV output path, with --sweep (default stdout)")
    p_res.add_argument("--format", choices=("text", "json"), default="text", help="without --sweep")
    p_res.set_defaults(func=_cmd_resource_fidelity)

    p_oracle = sub.add_parser("oracle", help="dense-matrix oracle")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_verify = oracle_sub.add_parser("verify", help="run all invariant checks")
    p_verify.add_argument("--ports", type=int, required=True)
    p_verify.add_argument("--dim", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=1e-9, help="largest passing deviation, finite and >= 0")
    p_verify.add_argument(
        "--optimal",
        action="store_true",
        help="also check the optimal-protocol recycling fidelity, closed form against the oracle",
    )
    p_verify.add_argument("--vfile", help="rotation weights for the checks (default: optimal weights)")
    p_verify.add_argument("--vfile-prev", help="weights for N-1 ports, with --vfile under --optimal")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_oracle_verify)

    p_parts = sub.add_parser("partitions", help="list bounded-height frames")
    p_parts.add_argument("--n", type=int, required=True)
    p_parts.add_argument("--max-height", type=int, required=True)
    p_parts.set_defaults(func=_cmd_partitions)

    p_v = sub.add_parser("vcoeffs", help="emit the optimal qubit coefficients")
    p_v.add_argument("--ports", type=int, required=True)
    p_v.add_argument("--out", help="output path (default stdout)")
    p_v.set_defaults(func=_cmd_vcoeffs)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except CoefficientError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DimensionCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())
