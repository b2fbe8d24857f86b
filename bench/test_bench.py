"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a source checkout.  The traced-run tests make one
untraced and one traced run per workload, about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness

ROOT = harness.BENCH_DIR.parent
DEFAULT_MANIFEST_HASH = "b601c715bb9e2dfccf7e05973a6c98740cea595bd3d1485add5ee8226dc93923"


@pytest.fixture(autouse=True)
def _at_checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}


def test_default_reference_is_the_published_manifest_hash():
    assert harness.load_references()["default"]["7"] == DEFAULT_MANIFEST_HASH


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from chainshell import cli, filtering, optimizer, pipeline, shell3d
        from tracer import Tracer

        originals = (filtering.measure, shell3d.ShellSurface.evaluate)
        with Tracer():
            assert optimizer.measure is filtering.measure
            assert optimizer.interpolate_surface is shell3d.interpolate_surface
            assert pipeline.analyze_shell is cli.analyze_shell
            assert filtering.measure is not originals[0]
            assert shell3d.ShellSurface.evaluate is not originals[1]
        assert (filtering.measure, shell3d.ShellSurface.evaluate) == originals
        assert optimizer.measure is filtering.measure
    finally:
        sys.path.remove(str(ROOT / "src"))


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_matches_untraced_and_covers_every_stage(name):
    workload = harness.Workload.load(name)
    untraced = harness.run_sample(workload, workload.seed, "run")
    traced = harness.run_sample(workload, workload.seed, "trace")
    assert untraced.ok, untraced.error
    assert traced.ok, traced.error
    assert traced.digest == untraced.digest == harness.load_references()[name][str(workload.seed)]

    spans = traced.payload["spans"]
    assert harness.coverage(spans) >= 0.95
    metrics = harness.per_layer_metrics(traced, untraced)
    assert set(metrics) == set(harness.per_layer_units())
    if name == "shelter":
        negative = {n: row["self_s"] for n, row in spans.items() if row["self_s"] < 0}
        assert not negative


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    without printing a result."""
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shelter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_span_is_an_error_not_a_zero():
    sample = harness.Sample(True, 1.0, 1.0, "digest", {"spans": {}, "import_s": 0.5})
    with pytest.raises(KeyError, match="pipeline.stage_units.s"):
        harness.per_layer_metrics(sample, sample)
