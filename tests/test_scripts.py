"""Tests of the scripts: smoke runs in a fresh interpreter on the package sources, and call counts in-process."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pbt_recycling import optimal

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_make_figure_data(tmp_path):
    proc = _run([str(ROOT / "scripts" / "make_figure_data.py"), "--ports-max", "6", "--outdir", str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for d in (2, 3, 4):
        lines = (tmp_path / f"recycling_vs_ports_d{d}.csv").read_text().splitlines()
        assert lines[0] == "N,d,frec,frec_opt,lower_bound_qubit"
        assert len(lines) == 6  # N = 2..6
        for line in lines[1:]:
            cols = line.split(",")
            assert cols[3] != ""
            assert (cols[4] != "") == (d == 2)
    assert len((tmp_path / "kround_bounds_d2.csv").read_text().splitlines()) == 6
    assert len((tmp_path / "resource_fidelity_d2.csv").read_text().splitlines()) == 7


def test_regen_pinned_values_imports(tmp_path):
    # importing runs no main(): the pinned table is not rewritten
    code = (
        "import importlib.util, sys; "
        f"spec = importlib.util.spec_from_file_location('regen', {str(ROOT / 'scripts' / 'regen_pinned_values.py')!r}); "
        "module = importlib.util.module_from_spec(spec); spec.loader.exec_module(module); "
        "assert callable(module.main)"
    )
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_pinned_values_recompute_from_the_oracle():
    # every frozen entry is one the script would compute, and the oracle still gives it
    spec = importlib.util.spec_from_file_location("regen", ROOT / "scripts" / "regen_pinned_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pinned = json.loads((ROOT / "src" / "pbt_recycling" / "data" / "pinned_values.json").read_text())
    plan = module.plan()
    assert sorted(plan) == sorted(pinned)
    for key, (provenance, compute) in plan.items():
        assert pinned[key]["provenance"] == provenance
        assert compute() == pytest.approx(pinned[key]["value"], rel=0, abs=1e-12), key


def test_make_figure_data_solves_each_weight_set_once(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_figure_data", ROOT / "scripts" / "make_figure_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    solve = optimal.v_optimal
    monkeypatch.setattr(optimal, "v_optimal", lambda N, d: calls.append((N, d)) or solve(N, d))
    module.recycling_curves(tmp_path, 6)
    assert calls == [(n, d) for d in (2, 3, 4) for n in range(1, 7)]  # one solve per weight set
