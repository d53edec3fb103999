"""Self-tests of the benchmark, kept apart from the package's own test suite.

    python3 -m pytest -q bench/selftest.py

Takes about a minute: one short traced run of each workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402

ORACLE = ("oracle.build_s", "oracle.eig_s", "oracle.verify_s", "oracle.fidelity_s")
STRESSED = {
    "curve": ("partitions.enumerate_s", "partitions.exact_s", "partitions.add_box_s", "recycling.sum_s", "cli.self_s"),
    "cold_points": ("partitions.enumerate_s", "partitions.exact_s", "partitions.add_box_s", "recycling.sum_s",
                    "optimal.weights_s", "optimal.sum_s", "cli.self_s"),
    "oracle_verify": ORACLE + ("characters.character_s", "optimal.weights_s", "cli.self_s"),
}
BYPASSED = {
    "curve": ORACLE + ("characters.character_s", "optimal.weights_s", "optimal.sum_s"),
    "cold_points": ORACLE + ("characters.character_s",),
    "oracle_verify": (),
}


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_run():
    """(detail, result) of one short traced run per workload, made on first use."""
    cache = {}

    def get(workload):
        if workload not in cache:
            proc = _run(HERE.parent, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[workload] = json.loads(lines[-2]), json.loads(lines[-1])
        return cache[workload]

    return get


def test_reference_check_rejects_a_perturbed_value():
    refs = workloads.load_references()
    for by_point in refs.values():
        for ref in by_point.values():
            assert workloads.json_value_ok(ref, ref)
            assert workloads.csv_value_ok(f"{ref:.12g}", ref)
            for bumped in (ref * (1 + 1e-9), ref * (1 - 1e-9)):
                assert not workloads.json_value_ok(bumped, ref)
                assert not workloads.csv_value_ok(f"{bumped:.12g}", ref)


def test_references_cover_every_drawable_point():
    refs = workloads.load_references()
    for quantity, points in workloads.reference_points().items():
        assert points <= set(refs[quantity]), quantity


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_proxy_is_steady_across_seeds(workload):
    proxies = [workloads.work_proxy(workload, seed) for seed in range(20)]
    assert (max(proxies) - min(proxies)) / min(proxies) < 0.03


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRIC_NAMES) + ["trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_times_the_layers_its_workload_stresses(workload, traced_run):
    detail, result = traced_run(workload)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert "trace.overhead_s" in metrics
    assert detail["skipped_names"] == []
    for name in STRESSED[workload]:
        assert metrics[name] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_error_rate_equals_untraced(workload, traced_run):
    detail, _ = traced_run(workload)
    assert detail["error_rate_traced"] == detail["error_rate_untraced"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "curve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
