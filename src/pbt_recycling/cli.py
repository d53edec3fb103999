"""Command-line surface: fidelities, bounds, verification, and sweep data.

Values are printed with 12 significant digits (scientific notation below
1e-4) and CSV output is byte-stable for identical flags.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 data-validation error.

A call builds the parser of its own command only and imports the oracle only
for ``oracle verify``; help and usage errors read as from one whole parser.
``oracle verify`` loads the weights and prints the one report of
``oracle.verify_suite``, which owns every check; ``--optimal`` passes the
weights for N - 1 ports as its ``v_prev``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from typing import Callable, NamedTuple, Optional

from . import optimal as opt
from . import recycling as rec
from .optimal import CoefficientError, VCoefficients
from .partitions import frame_text, partitions_bounded
from .reports import DimensionCapError, FidelityReport

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _usage_error(message: str):
    """Exit 2 with the top-level usage: a flag combination the command's parser accepts but the command does not."""
    _parser().error(message)


def format_value(x: float) -> str:
    """12 significant digits; scientific notation below 1e-4."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


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


def _weight_pair(args) -> tuple[VCoefficients, VCoefficients]:
    """Weights for N and N-1 ports: --vfile and --vfile-prev when given, else the optimal ones."""
    if bool(args.vfile) != bool(args.vfile_prev):
        _usage_error("--vfile and --vfile-prev must be given together")
    N, d = args.ports, args.dim
    opt._check_optimal_point(N, d)
    if args.vfile:
        return _load_weights(args.vfile, N, d), _load_weights(args.vfile_prev, N - 1, d)
    return opt.v_optimal(N, d), opt.v_optimal(N - 1, d)


def _cmd_frec(args) -> int:
    if not args.optimal and (args.vfile or args.vfile_prev):
        _usage_error("--vfile and --vfile-prev are read only with --optimal")
    if args.optimal:
        report = opt.frec_optimal(args.ports, args.dim, *_weight_pair(args))
    else:
        report = rec.frec(args.ports, args.dim)
    _emit(args, _report_lines(report), report.as_dict())
    return EXIT_OK


def _sweep_lines(n_min: int, n_max: int, d: int, want_optimal: bool):
    """CSV rows for N = n_min..n_max; each N's optimal weights serve again as the next row's N - 1."""
    v_prev = opt.v_optimal(n_min - 1, d) if want_optimal and n_min >= 2 else None
    for N, value in zip(range(n_min, n_max + 1), rec.frec_values(n_min, n_max, d)):
        bound = format_value(rec.lower_bound_qubit(N)) if d == 2 else ""
        cells = [str(N), str(d), format_value(value), "", bound]  # frec_opt filled below, with --optimal
        if want_optimal:
            v = opt.v_optimal(N, d)
            if N >= 2:
                cells[3] = format_value(opt.frec_optimal(N, d, v, v_prev).value)
            v_prev = v
        yield ",".join(cells)


def _cmd_sweep(args) -> int:
    if args.ports_min < 1 or args.ports_max < args.ports_min:
        _usage_error("need 1 <= --ports-min <= --ports-max")
    lines = _sweep_lines(args.ports_min, args.ports_max, args.dim, args.optimal)
    _write_text(args.out, "\n".join(["N,d,frec,frec_opt,lower_bound_qubit", *lines]) + "\n")
    return EXIT_OK


def _cmd_bound(args) -> int:
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


def _cmd_resource_fidelity(args) -> int:
    if args.sweep:
        if args.vfile:
            _usage_error("--sweep uses the optimal qubit weights and reads no --vfile")
        if args.ports is not None:
            _usage_error("--sweep reads --ports-min and --ports-max, not --ports")
        if args.format != "text":
            _usage_error("--sweep writes CSV and reads no --format")
        if args.ports_min is None or args.ports_max is None:
            _usage_error("--sweep requires --ports-min and --ports-max")
        if args.ports_min < 1 or args.ports_max < args.ports_min:
            _usage_error("need 1 <= --ports-min <= --ports-max")
        lines = ["N,d,resource_fidelity"]
        for n in range(args.ports_min, args.ports_max + 1):
            value = opt.resource_state_fidelity(n, 2, opt.v_optimal(n, 2)).value
            lines.append(f"{n},2,{format_value(value)}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.ports_min is not None or args.ports_max is not None:
        _usage_error("--ports-min and --ports-max are read only with --sweep")
    if args.out is not None:
        _usage_error("--out is read only with --sweep")
    if args.vfile:
        v = opt.load_v_coefficients(args.vfile)
        if args.ports is not None and v.ports != args.ports:
            raise CoefficientError(f"coefficient file is for N={v.ports}, requested N={args.ports}")
        report = opt.resource_state_fidelity(v.ports, v.dim, v)
        _emit(args, _report_lines(report), report.as_dict())
        return EXIT_OK
    if args.ports is None:
        _usage_error("--ports is required without --sweep")
    report = opt.resource_state_fidelity(args.ports, 2, opt.v_optimal(args.ports, 2))
    _emit(args, _report_lines(report), report.as_dict())
    return EXIT_OK


def _cmd_oracle_verify(args) -> int:
    if not args.optimal and args.vfile_prev:
        _usage_error("--vfile-prev is read only with --optimal")
    if not 0.0 <= args.tol < math.inf:
        _usage_error(f"--tol must be finite and at least 0, got {args.tol!r}")
    if args.optimal:
        v, v_prev = _weight_pair(args)
    else:
        v = _load_weights(args.vfile, args.ports, args.dim) if args.vfile else opt.v_optimal(args.ports, args.dim)
        v_prev = None
    from . import oracle as orc  # the one command that reads the oracle

    report = orc.verify_suite(args.ports, args.dim, tol=args.tol, v=v, v_prev=v_prev)
    if args.format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.detail}]" if c.detail else ""
            print(f"{status}  {c.name}  max_deviation={c.max_deviation:.3e}{extra}")
        print(f"overall: {'PASS' if report.all_passed else 'FAIL'} (tol={report.tol:g})")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_partitions(args) -> int:
    for p in partitions_bounded(args.n, args.max_height):
        print(frame_text(p))
    return EXIT_OK


def _cmd_vcoeffs(args) -> int:
    v = opt.v_optimal(args.ports, 2)
    if args.out and args.out != "-":
        opt.save_v_coefficients(v, args.out)
    else:
        print(json.dumps(v.as_document(), sort_keys=True))
    return EXIT_OK


def _frec_flags(p: argparse.ArgumentParser):
    p.add_argument("--ports", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--vfile", help="coefficient file for N ports, with --optimal (default: optimal weights)")
    p.add_argument("--vfile-prev", help="coefficient file for N-1 ports, with --vfile")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _sweep_flags(p: argparse.ArgumentParser):
    p.add_argument("--ports-min", type=int, required=True)
    p.add_argument("--ports-max", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--out", help="output path (default stdout)")


def _bound_flags(p: argparse.ArgumentParser):
    p.add_argument("--ports", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _resource_fidelity_flags(p: argparse.ArgumentParser):
    p.add_argument("--ports", type=int)
    p.add_argument("--vfile", help="coefficient file, any d, not with --sweep (default: optimal qubit weights)")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--ports-min", type=int, help="first N, with --sweep")
    p.add_argument("--ports-max", type=int, help="last N, with --sweep")
    p.add_argument("--out", help="CSV output path, with --sweep (default stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text", help="without --sweep")


def _oracle_verify_flags(p: argparse.ArgumentParser):
    p.add_argument("--ports", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9, help="largest passing deviation, finite and >= 0")
    p.add_argument(
        "--optimal",
        action="store_true",
        help="also check the optimal-protocol recycling fidelity, closed form against the oracle",
    )
    p.add_argument("--vfile", help="rotation weights for the checks (default: optimal weights)")
    p.add_argument("--vfile-prev", help="weights for N-1 ports, with --vfile under --optimal")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _partitions_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-height", type=int, required=True)


def _vcoeffs_flags(p: argparse.ArgumentParser):
    p.add_argument("--ports", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")


class _Command(NamedTuple):
    help: str
    handler: Optional[Callable[[argparse.Namespace], int]]  # None for a word that only groups commands
    flags: Optional[Callable[[argparse.ArgumentParser], None]]


#: Every command by its words, in the order of the help listings, with the words that group commands.
_COMMANDS = {
    ("frec",): _Command("one-round recycling fidelity", _cmd_frec, _frec_flags),
    ("sweep",): _Command("CSV over a range of port counts", _cmd_sweep, _sweep_flags),
    ("bound",): _Command("k-round lower bound", _cmd_bound, _bound_flags),
    ("resource-fidelity",): _Command(
        "overlap of plain and rotated resource states", _cmd_resource_fidelity, _resource_fidelity_flags
    ),
    ("oracle",): _Command("dense-matrix oracle", None, None),
    ("oracle", "verify"): _Command("run all invariant checks", _cmd_oracle_verify, _oracle_verify_flags),
    ("partitions",): _Command("list bounded-height frames", _cmd_partitions, _partitions_flags),
    ("vcoeffs",): _Command("emit the optimal qubit coefficients", _cmd_vcoeffs, _vcoeffs_flags),
}


class _Deferred:
    """Stands for the parser of ``words`` in its group's listing; that parser is built when argparse first uses it."""

    def __init__(self, words: tuple[str, ...], **_):
        self.words = words

    def parse_known_args(self, args=None, namespace=None):
        return _parser(*self.words).parse_known_args(args, namespace)


@cache
def _parser(*words: str) -> argparse.ArgumentParser:
    """The parser of one command, or the flagless listing of a group's commands (no words: the top level).

    Built once per process, on first use.  A listing's entries are ``_Deferred``,
    so a whole-line parse from the top level reaches the same command parsers.
    """
    parser = argparse.ArgumentParser(
        prog=" ".join(("pbt-recycling", *words)),
        description=None if words else "Recycling fidelity of the port-based teleportation resource state.",
    )
    command = _COMMANDS.get(words)
    if command is not None and command.handler is not None:
        command.flags(parser)
        parser.set_defaults(handler=command.handler)
        return parser
    sub = parser.add_subparsers(dest="_".join((*words, "command")), required=True, parser_class=_Deferred)
    for key, child in _COMMANDS.items():
        if key[:-1] == words:
            sub.add_parser(key[-1], help=child.help, words=key)
    return parser


def run(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when None) and return its exit code.

    The leading words pick the command, whose own parser reads the rest.  Help,
    a missing or unknown command and unrecognized arguments take the top level.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(argv[:2]) if tuple(argv[:2]) in _COMMANDS else tuple(argv[:1])
    found = words in _COMMANDS and _COMMANDS[words].handler is not None
    if found:
        args, extra = _parser(*words).parse_known_args(argv[len(words):])
    if not found or extra:
        args = _parser().parse_args(argv)  # exits with help or a usage error
    try:
        return args.handler(args)
    except CoefficientError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (DimensionCapError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())
