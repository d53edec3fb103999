#!/usr/bin/env python3
"""Emit the CSV data behind the standard plots (no rendering here).

Outputs, under --outdir (default ./figure_data):
  recycling_vs_ports_d{2,3,4}.csv   non-optimal and optimal fidelity vs N
  kround_bounds_d2.csv              k-round lower bounds for several k
  resource_fidelity_d2.csv          plain/rotated resource-state overlap vs N

The recycling and resource-fidelity files are the CLI's ``sweep --optimal``
and ``resource-fidelity --sweep`` output, written through ``cli.run``.
"""

import argparse
import pathlib
import sys

from pbt_recycling import cli, kround_lower_bound
from pbt_recycling.cli import format_value as fmt
from pbt_recycling.recycling import frec_values


def _cli(path: pathlib.Path, *argv: str):
    """Write ``path`` with one CLI command; exit with its code when nonzero."""
    code = cli.run([*argv, "--out", str(path)])
    if code != cli.EXIT_OK:
        sys.exit(code)
    print(f"wrote {path}")


def recycling_curves(outdir: pathlib.Path, nmax: int):
    for d in (2, 3, 4):
        argv = ("sweep", "--ports-min", "2", "--ports-max", str(nmax), "--dim", str(d), "--optimal")
        _cli(outdir / f"recycling_vs_ports_d{d}.csv", *argv)


def kround_curves(outdir: pathlib.Path, nmax: int):
    ks = (1, 2, 5, 10)
    lines = ["N," + ",".join(f"bound_k{k}" for k in ks)]
    for n, f in zip(range(2, nmax + 1), frec_values(2, nmax, 2)):
        f1 = min(f, 1.0)
        lines.append(f"{n}," + ",".join(fmt(kround_lower_bound(f1, k)) for k in ks))
    path = outdir / "kround_bounds_d2.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def resource_curve(outdir: pathlib.Path, nmax: int):
    argv = ("resource-fidelity", "--sweep", "--ports-min", "1", "--ports-max", str(nmax))
    _cli(outdir / "resource_fidelity_d2.csv", *argv)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figure_data")
    ap.add_argument("--ports-max", type=int, default=60)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    recycling_curves(outdir, args.ports_max)
    kround_curves(outdir, args.ports_max)
    resource_curve(outdir, args.ports_max)


if __name__ == "__main__":
    main()
