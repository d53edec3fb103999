#!/usr/bin/env python3
"""Emit the CSV data behind the standard plots (no rendering here).

Outputs, under --outdir (default ./figure_data):
  recycling_vs_ports_d{2,3,4}.csv   non-optimal and optimal fidelity vs N
  kround_bounds_d2.csv              k-round lower bounds for several k
  resource_fidelity_d2.csv          plain/rotated resource-state overlap vs N
"""

import argparse
import pathlib

from pbt_recycling import (
    frec,
    frec_optimal,
    kround_lower_bound,
    lower_bound_qubit,
    resource_state_fidelity,
    v_optimal,
)
from pbt_recycling.cli import format_value as fmt


def recycling_curves(outdir: pathlib.Path, nmax: int):
    for d in (2, 3, 4):
        lines = ["N,d,frec,frec_opt,lower_bound_qubit"]
        v_prev = v_optimal(1, d)
        for n in range(2, nmax + 1):
            f = frec(n, d).value
            v = v_optimal(n, d)
            fo = fmt(frec_optimal(n, d, v, v_prev).value)
            v_prev = v  # the next row's N - 1 weights
            lb = fmt(lower_bound_qubit(n)) if d == 2 else ""
            lines.append(f"{n},{d},{fmt(f)},{fo},{lb}")
        path = outdir / f"recycling_vs_ports_d{d}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")


def kround_curves(outdir: pathlib.Path, nmax: int):
    ks = (1, 2, 5, 10)
    lines = ["N," + ",".join(f"bound_k{k}" for k in ks)]
    for n in range(2, nmax + 1):
        f1 = min(frec(n, 2).value, 1.0)
        lines.append(f"{n}," + ",".join(fmt(kround_lower_bound(f1, k)) for k in ks))
    path = outdir / "kround_bounds_d2.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def resource_curve(outdir: pathlib.Path, nmax: int):
    lines = ["N,d,resource_fidelity"]
    for n in range(1, nmax + 1):
        lines.append(f"{n},2,{fmt(resource_state_fidelity(n, 2, v_optimal(n, 2)).value)}")
    path = outdir / "resource_fidelity_d2.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


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
