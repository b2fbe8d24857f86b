from __future__ import annotations

import gc
import hashlib
import json
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from chainshell.config import (
    FilterBlock,
    Gen3dBlock,
    LoadsBlock,
    OptimizerBlock,
    PipelineConfig,
    config_hash,
    derive_seed,
    load_config,
    validate,
)
from chainshell import shell3d
from chainshell.errors import ConfigError, StageError
from chainshell.optimizer import AnchorConfig, AnchorKind, _design_solve, evaluate_candidate
from chainshell.pipeline import (
    STAGES,
    RunDir,
    _group_grids,
    analyze_model,
    node_displacement_rows,
    read_manifest_hash,
    run_pipeline,
    stage_filter,
    stage_gen3d,
    stage_optimize,
    structure_spec,
)
from chainshell.shell3d import TriangleMesh, group_parameters, interpolate_surface

from helpers import (carried_surface_displacement_rows, dome_surface, holds_geometry,
                     per_node_displacement_rows)

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _trimmed_config(**overrides) -> PipelineConfig:
    """Small but complete run: every stage executes, just fewer iterations."""
    base = dict(
        gen3d=Gen3dBlock(iterations=3),
        filter=FilterBlock(keep=2),
        optimizer=OptimizerBlock(iterations_per_anchor=2),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _read_manifest(run_dir: Path) -> dict:
    sections: dict = {}
    current = None
    for line in (run_dir / "manifest.txt").read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif "=" in line and current is not None:
            key, value = line.split("=", 1)
            sections[current][key.strip()] = value.strip()
    return sections


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_run_writes_every_stage(default_run):
    config, run_dir = default_run
    manifest = _read_manifest(run_dir)
    assert manifest["run"]["status"] == "complete"
    assert manifest["run"]["seed"] == "7"
    for stage in STAGES:
        assert f"{stage}_s" in manifest["timings"]

    for rel in ("config.ini", "units/units.csv", "sweep2d/sweep2d.csv",
                "sweep2d/max_feasible.csv", "analyze/displacements.csv",
                "optimize/ranking.csv", "optimize/winner.mesh",
                "optimize/winner_displacements.csv", "optimize/columns.csv",
                "optimize/slope_failures.csv"):
        assert (run_dir / rel).is_file(), rel
        assert rel in manifest["outputs"]
    for group in range(1, 5):
        assert (run_dir / f"gen3d/g{group}/manifest.csv").is_file()
        assert (run_dir / f"filter/g{group}/selected.csv").is_file()
        meshes = list((run_dir / f"gen3d/g{group}").glob("iter*.mesh"))
        images = list((run_dir / f"gen3d/g{group}").glob("iter*.pgm"))
        assert len(meshes) == 20 and len(images) == 20

    # recorded digests match what is on disk, and no stage wrote into
    # another stage's directory or reused a path
    outputs = manifest["outputs"]
    assert len(outputs) == len(set(outputs))
    for rel, digest in outputs.items():
        assert _sha256(run_dir / rel) == digest
        top = rel.split("/", 1)[0]
        assert top in STAGES or rel == "config.ini"
    # and the manifest lists exactly the files the run wrote
    on_disk = {p.relative_to(run_dir).as_posix()
               for p in run_dir.rglob("*") if p.is_file()}
    assert on_disk - {"manifest.txt"} == set(outputs)


# the published manifest hash of `chainshell run` on the default config
DEFAULT_MANIFEST_HASH = "b601c715bb9e2dfccf7e05973a6c98740cea595bd3d1485add5ee8226dc93923"


def test_default_run_reproduces_the_published_manifest_hash(default_run):
    config, run_dir = default_run
    assert (config.seed, config.threads) == (7, 1)
    assert read_manifest_hash(run_dir) == DEFAULT_MANIFEST_HASH


def _outputs_digest(run_dir: Path) -> str:
    """One hash over every output digest but config.ini's (which records threads)."""
    outputs = _read_manifest(run_dir)["outputs"]
    return hashlib.sha256("".join(f"{rel}={outputs[rel]}\n" for rel in sorted(outputs)
                                  if rel != "config.ini").encode()).hexdigest()


# the benchmark's other workloads, checked the way bench/harness.py checks
# them against the digests stored in bench/references.json
@pytest.mark.parametrize("name, digest", [("fem-fine", read_manifest_hash),
                                          ("shelter", _outputs_digest)])
def test_benchmark_workload_reproduces_its_reference_digest(tmp_path, name, digest):
    config = load_config(str(BENCH_DIR / "workloads" / f"{name}.ini"))
    references = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    run_dir = run_pipeline(config, tmp_path / "run")
    assert digest(run_dir) == references[name][str(config.seed)]


@pytest.mark.parametrize("seed", range(8))
def test_displacement_rows_match_the_per_node_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    coords = np.linspace(0.0, float(rng.uniform(0.5, 5.0)), n)
    disp = rng.normal(0.0, 10.0 ** rng.uniform(-9, -1), (n * n, 6))
    # signed zeros and negatives that round to -0.000000 in mm
    translations = disp[:, :3]
    picks = rng.integers(0, translations.size, 3 * n)
    translations.flat[picks[:n]] = -0.0
    translations.flat[picks[n:2 * n]] = 0.0
    translations.flat[picks[2 * n:]] = -rng.uniform(0.0, 5e-10, n)
    disp[rng.integers(0, n * n), :3] = -0.0
    assert node_displacement_rows(disp, coords) == per_node_displacement_rows(disp, coords)


def test_default_run_analyzes_sixteen_models(default_run):
    _, run_dir = default_run
    lines = (run_dir / "analyze" / "displacements.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("model,group,iteration,")
    assert len(rows) == 16
    by_group = {g: 0 for g in range(1, 5)}
    for row in rows:
        fields = row.split(",")
        by_group[int(fields[1])] += 1
        assert fields[-1] == "1"           # every kept model passes
        assert fields[-2] == "8.0000"      # span/250 limit
    assert all(count == 4 for count in by_group.values())


def test_default_run_keeps_four_per_group(default_run):
    _, run_dir = default_run
    for group in range(1, 5):
        lines = (run_dir / f"filter/g{group}/selected.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20
        kept = [int(r[0]) for r in rows if r[6] == "1"]
        assert len(kept) == 4


def test_ranking_lists_all_candidates(default_run):
    _, run_dir = default_run
    lines = (run_dir / "optimize" / "ranking.csv").read_text().splitlines()
    assert lines[0].startswith("candidate,anchor_kind,rank,")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 100
    ranked = [r for r in rows if r[2] != ""]
    assert [int(r[2]) for r in ranked] == list(range(1, len(ranked) + 1))
    scores = [float(r[-1]) for r in ranked]
    assert scores == sorted(scores, reverse=True)
    rejected = [r for r in rows if r[2] == ""]
    assert all(r[10] == "0" for r in rejected)


def test_identical_runs_are_byte_identical(tmp_path):
    config = _trimmed_config()
    dir_a = run_pipeline(config, tmp_path / "a")
    dir_b = run_pipeline(config, tmp_path / "b")
    threaded = run_pipeline(_trimmed_config(threads=2), tmp_path / "c")
    assert read_manifest_hash(dir_a) == read_manifest_hash(dir_b)
    for rel in ("units/units.csv", "analyze/displacements.csv",
                "optimize/ranking.csv", "filter/g4/selected.csv"):
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()
        assert (dir_a / rel).read_bytes() == (threaded / rel).read_bytes()
    # thread count changes config.ini, hence the manifest, but no output CSV
    assert _read_manifest(threaded)["run"]["status"] == "complete"


def test_invalid_config_fails_before_any_io(tmp_path):
    config = PipelineConfig(optimizer=OptimizerBlock(weight_cms=0.9))
    out = tmp_path / "never"
    with pytest.raises(ConfigError) as err:
        run_pipeline(config, out)
    assert err.value.key == "optimizer.weight_cms"
    assert not out.exists()


def test_stage_failure_keeps_prior_outputs(tmp_path):
    # group 5 wants 30 mm at f=7, beyond the rectangular feasibility limit
    config = _trimmed_config(gen3d=Gen3dBlock(iterations=2, groups=5))
    out = tmp_path / "broken"
    with pytest.raises(StageError) as err:
        run_pipeline(config, out)
    assert err.value.stage == "gen3d"

    manifest = _read_manifest(out)
    assert manifest["run"]["status"] == "incomplete"
    assert manifest["run"]["failed_stage"] == "gen3d"
    assert "envelope" in manifest["run"]["error"]
    for rel in ("config.ini", "units/units.csv", "sweep2d/sweep2d.csv"):
        assert (out / rel).is_file()
        assert rel in manifest["outputs"]
    # groups 1-4 were generated before the failure: they stay on disk and
    # the manifest lists them with their digests
    rel = "gen3d/g1/manifest.csv"
    assert manifest["outputs"][rel] == _sha256(out / rel)
    assert not (out / "analyze").exists()


def test_group_surface_generation_is_seed_derived():
    config = _trimmed_config()
    amplitude, frequency, seed, grids = _group_grids(config, 2)
    assert (amplitude, frequency) == group_parameters(2)
    assert seed == derive_seed(config.seed, "gen3d:g2")
    assert len(grids) == 3
    assert [g.seed for g in grids] == [seed] * 3
    assert [g.iteration for g in grids] == [0, 1, 2]


def test_gen3d_carry_holds_grids_and_metrics_only(tmp_path, monkeypatch):
    built = []
    original = shell3d.interpolate_surface

    def tracking(control, resolution):
        surface = original(control, resolution)
        built.append(weakref.ref(surface))
        return surface

    monkeypatch.setattr(shell3d, "interpolate_surface", tracking)
    config = _trimmed_config(gen3d=Gen3dBlock(iterations=3, groups=2))
    carry = stage_gen3d(config, RunDir.create(tmp_path))
    gc.collect()
    assert len(built) == 6
    assert all(ref() is None for ref in built)
    assert not holds_geometry(carry)
    assert [len(info["grids"]) for info in carry.values()] == [3, 3]


def test_analyze_rows_match_the_carried_surface_reference(default_run):
    config, run_dir = default_run
    assert ((run_dir / "analyze" / "displacements.csv").read_bytes()
            == carried_surface_displacement_rows(config).encode())


def test_filter_stage_reuses_the_gen3d_metrics(tmp_path, monkeypatch):
    config = _trimmed_config(gen3d=Gen3dBlock(iterations=3, groups=1))
    out = RunDir.create(tmp_path)
    gen_carry = stage_gen3d(config, out)
    gen3d_outputs = set(out.digests)

    def refuse(mesh):
        raise AssertionError("stage_filter measured a surface again")

    monkeypatch.setattr(TriangleMesh, "boundary_edges", refuse)
    carry = stage_filter(config, out, gen_carry)
    assert set(out.digests) - gen3d_outputs == {"filter/g1/selected.csv"}
    assert carry[1].metrics == gen_carry[1]["metrics"]


def test_a_rerun_into_its_own_run_directory_is_allowed(tmp_path):
    config = _trimmed_config()
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.txt").write_text(f"[run]\nconfig_hash = {config_hash(config)}\n")
    run_pipeline(config, out)
    assert _read_manifest(out)["run"]["status"] == "complete"


def test_manifest_hash_reader_requires_the_hash_line(tmp_path):
    (tmp_path / "manifest.txt").write_text("[run]\nseed = 7\n")
    with pytest.raises(StageError):
        read_manifest_hash(tmp_path)


def _halved(config: PipelineConfig, block: str, key: str) -> PipelineConfig:
    section = getattr(config, block)
    return replace(config, **{block: replace(section, **{key: getattr(section, key) / 2})})


def test_optimize_stage_uses_the_config_moduli(tmp_path):
    config = _trimmed_config(optimizer=OptimizerBlock(iterations_per_anchor=4))
    soft = _halved(_halved(config, "fem", "elastic_modulus_pa"), "fem", "shear_modulus_pa")
    stage_optimize(config, RunDir.create(tmp_path / "default"))
    stage_optimize(soft, RunDir.create(tmp_path / "soft"))
    # the ranking does not see the frame; the winner's solve does
    for rel in ("ranking.csv", "columns.csv"):
        assert ((tmp_path / "default/optimize" / rel).read_bytes()
                == (tmp_path / "soft/optimize" / rel).read_bytes())
    assert ((tmp_path / "default/optimize/winner_displacements.csv").read_bytes()
            != (tmp_path / "soft/optimize/winner_displacements.csv").read_bytes())


@pytest.fixture(scope="module")
def dome_design():
    return evaluate_candidate("dome", dome_surface(), AnchorConfig(AnchorKind.FOUR, span_m=2.0),
                              OptimizerBlock())


@pytest.mark.parametrize("block,key",
                         [("loads", f.name) for f in fields(LoadsBlock)]
                         + [("fem", "elastic_modulus_pa"), ("fem", "shear_modulus_pa")])
def test_every_structural_key_changes_the_solves(dome_design, block, key):
    base = PipelineConfig()
    changed = _halved(base, block, key)
    control, area = dome_design.control, dome_design.cms_m2
    assert analyze_model(changed, control, area) != analyze_model(base, control, area)
    surface = interpolate_surface(control, dome_design.resolution)

    def design_mm(config):
        return _design_solve(dome_design, surface, dome_design.columns,
                             config.fem.lattice_grid,
                             structure_spec(config)).max_displacement_mm

    assert design_mm(changed) != design_mm(base)


# one changed, valid value per [optimizer] key; weights move in pairs that
# keep their sum at 1
_OPTIMIZER_CHANGES = {
    "iterations_per_anchor": {"iterations_per_anchor": 3},
    "amplitude_cap_m": {"amplitude_cap_m": 2.5},
    "amplitude_min_fraction": {"amplitude_min_fraction": 0.3},
    "control_F": {"control_F": 3},
    "weight_cms": {"weight_cms": 0.5, "weight_ua": 0.3},
    "weight_ua": {"weight_ua": 0.5, "weight_cms": 0.3},
    "weight_lc": {"weight_lc": 0.2, "weight_fc": 0.0},
    "weight_fc": {"weight_fc": 0.2, "weight_lc": 0.0},
    "min_slope": {"min_slope": 0.5},
    "slope_rule": {"slope_rule": "strict"},
    "headroom_m": {"headroom_m": 1.0},
    "column_section_side_m": {"column_section_side_m": 0.08},
    "reduction_tolerance": {"reduction_tolerance": 0.0},
}


def _study_digests(block: OptimizerBlock, path: Path) -> dict:
    out = RunDir.create(path)
    stage_optimize(validate(_trimmed_config(optimizer=block)), out)
    return out.digests


@pytest.fixture(scope="module")
def base_study_digests(tmp_path_factory):
    return _study_digests(OptimizerBlock(iterations_per_anchor=2),
                          tmp_path_factory.mktemp("study-base"))


@pytest.mark.parametrize("key", [f.name for f in fields(OptimizerBlock)])
def test_every_optimizer_key_reaches_the_study(base_study_digests, tmp_path, key):
    assert key in _OPTIMIZER_CHANGES, f"no changed value for [optimizer] {key}"
    block = replace(OptimizerBlock(iterations_per_anchor=2), **_OPTIMIZER_CHANGES[key])
    assert _study_digests(block, tmp_path) != base_study_digests
