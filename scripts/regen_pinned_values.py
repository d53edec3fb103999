#!/usr/bin/env python3
"""Extend the checked-in table of oracle-derived constants.

Every value is computed by the dense-matrix oracle (never by the closed
forms it arbitrates) on small instances, and frozen with a provenance note.
An entry already in the table is kept as it is, so a frozen value never
moves when the oracle's rounding does; delete an entry to recompute it.
Run from the repository root; rewrites src/pbt_recycling/data/pinned_values.json.
"""

import json
import pathlib

from pbt_recycling import (
    frec_optimal_oracle,
    frec_oracle,
    resource_fidelity_oracle,
    v_optimal,
)

GRID = [
    (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2),
    (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (1, 4), (2, 4), (3, 4), (2, 5), (2, 6),
]

#: Points of the optimal protocol, each with the solved weights ``v_optimal``.
OPTIMAL_GRID = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4)]

#: Points of the resource-state overlap, each with the solved weights ``v_optimal``.
RESOURCE_GRID = [(6, 2), (7, 2), (4, 3), (5, 3), (3, 4)]


def plan():
    """Every entry of the table: key -> (provenance, a call computing its value)."""
    entries = {}
    for N, d in GRID:
        entries[f"frec_oracle/N={N},d={d}"] = (
            "dense SRM square root against the signal state",
            lambda N=N, d=d: frec_oracle(N, d).value,
        )
    for N, d in OPTIMAL_GRID:
        entries[f"frec_optimal_oracle/N={N},d={d}"] = (
            "dense trace with analytic qubit rotation weights"
            if d == 2
            else "dense trace with the solved rotation weights v_optimal",
            lambda N=N, d=d: frec_optimal_oracle(N, d, v_optimal(N, d), v_optimal(N - 1, d)).value,
        )
    for N, d in RESOURCE_GRID:
        entries[f"resource_fidelity_oracle/N={N},d={d}"] = (
            "direct overlap of the rotated and plain resource vectors",
            lambda N=N, d=d: resource_fidelity_oracle(N, d, v_optimal(N, d)),
        )
    return entries


def main():
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbt_recycling" / "data" / "pinned_values.json"
    frozen = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    entries = {}
    for key, (provenance, compute) in plan().items():
        entries[key] = frozen[key] if key in frozen else {"value": compute(), "provenance": provenance}
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    added = len(entries.keys() - frozen.keys())
    print(f"wrote {out} ({len(entries)} entries, {added} new)")


if __name__ == "__main__":
    main()
