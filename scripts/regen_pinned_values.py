#!/usr/bin/env python3
"""Regenerate the checked-in table of oracle-derived constants.

Every value is computed by the dense-matrix oracle (never by the closed
forms it arbitrates) on small instances, and frozen with a provenance note.
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

GRID = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (1, 4), (2, 4)]


def main():
    entries = {}
    for N, d in GRID:
        entries[f"frec_oracle/N={N},d={d}"] = {
            "value": frec_oracle(N, d).value,
            "provenance": "dense SRM square root against the signal state",
        }
    for N in (2, 3, 4, 5):
        entries[f"frec_optimal_oracle/N={N},d=2"] = {
            "value": frec_optimal_oracle(N, 2, v_optimal(N, 2), v_optimal(N - 1, 2)).value,
            "provenance": "dense trace with analytic qubit rotation weights",
        }
    for N in (6, 7):
        entries[f"resource_fidelity_oracle/N={N},d=2"] = {
            "value": resource_fidelity_oracle(N, 2, v_optimal(N, 2)),
            "provenance": "direct overlap of the rotated and plain resource vectors",
        }
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbt_recycling" / "data" / "pinned_values.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(entries)} entries)")


if __name__ == "__main__":
    main()
