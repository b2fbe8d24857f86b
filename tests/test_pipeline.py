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
    _BLOCK_NAMES,
    FemBlock,
    FilterBlock,
    Gen3dBlock,
    OptimizerBlock,
    PipelineConfig,
    config_hash,
    derive_seed,
    load_config,
)
from chainshell import shell3d
from chainshell.errors import ConfigError, StageError
from chainshell.pipeline import (
    STAGES,
    RunDir,
    _group_grids,
    filter_pool,
    node_displacement_rows,
    read_manifest_hash,
    run_pipeline,
    stage_filter,
    stage_gen3d,
    stage_optimize,
)
from chainshell.shell3d import TriangleMesh, group_parameters

from helpers import (carried_surface_displacement_rows, fail_gen3d_at_group_2,
                     holds_geometry, per_node_displacement_rows)

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


# how bench/harness.py reduces each workload's run to the digest it stores
_WORKLOAD_DIGESTS = {"default": read_manifest_hash, "fem-fine": read_manifest_hash,
                     "shelter": _outputs_digest}


# the benchmark's workloads, checked the way bench/harness.py checks them
# against the digests stored in bench/references.json: the other workloads
# at their config's seed (None), and each at the first and last stored seed
@pytest.mark.parametrize("name, digest, seed", [
    pytest.param("fem-fine", read_manifest_hash, None, id="fem-fine-read_manifest_hash"),
    pytest.param("shelter", _outputs_digest, None, id="shelter-_outputs_digest"),
] + [pytest.param(name, digest, seed, id=f"{name}-seed{seed}")
     for name, digest in _WORKLOAD_DIGESTS.items() for seed in (0, 31)])
def test_benchmark_workload_reproduces_its_reference_digest(tmp_path, name, digest, seed):
    config = load_config(str(BENCH_DIR / "workloads" / f"{name}.ini"))
    if seed is not None:
        config = replace(config, seed=seed)
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


def test_stage_failure_keeps_prior_outputs(tmp_path, monkeypatch):
    fail_gen3d_at_group_2(monkeypatch)
    config = _trimmed_config(gen3d=Gen3dBlock(iterations=2))
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
    # group 1 was generated before the failure: it stays on disk and the
    # manifest lists it with its digests
    rel = "gen3d/g1/manifest.csv"
    assert manifest["outputs"][rel] == _sha256(out / rel)
    assert not (out / "analyze").exists()


def test_group_surface_generation_is_seed_derived():
    config = _trimmed_config()
    amplitude, frequency, seed, grids = _group_grids(config, 2)
    assert (amplitude, frequency) == group_parameters(2)
    assert seed == derive_seed(config.seed, "gen3d:g2")
    assert grids.shape == (3, frequency, frequency)
    # iteration i is drawn from the (seed, i) stream
    for i, grid in enumerate(grids):
        alone = shell3d.control_grid(amplitude, frequency, seed, i, config.gen3d.span_mm)
        assert grid.tobytes() == alone.tobytes()


def test_gen3d_carry_holds_grids_and_metrics_only(tmp_path, monkeypatch):
    built = []
    original = shell3d.interpolate_surface

    def tracking(z_mm, span_mm, resolution):
        surface = original(z_mm, span_mm, resolution)
        built.append(weakref.ref(surface))
        return surface

    monkeypatch.setattr(shell3d, "interpolate_surface", tracking)
    config = _trimmed_config(gen3d=Gen3dBlock(iterations=3, groups=2))
    carry = stage_gen3d(config, RunDir.create(tmp_path))
    gc.collect()
    assert len(built) == 6
    assert all(ref() is None for ref in built)
    assert not holds_geometry(carry)
    assert [info["grids"].shape for info in carry.values()] == [(3, 3, 3), (3, 4, 4)]


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
    # selected.csv lists the gen3d metrics, and the carry only the kept indices
    selected = (tmp_path / "filter" / "g1" / "selected.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4:6] for row in selected] == [
        [f"{m.perimeter_P:.9f}", f"{m.area_a:.9f}"] for m in gen_carry[1]["metrics"]]
    assert carry == {1: filter_pool(config, gen_carry[1]["metrics"])[0]}


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


# Two shelter studies no benchmark workload runs, pinned file by file: the
# strict drainage rule rejecting 17 of its 30 candidates, and a 3x3 frame
# lattice on which the corner columns and the anchors share nodes.
_PINNED_STUDIES = {
    "strict": (PipelineConfig(seed=3, optimizer=OptimizerBlock(
        slope_rule="strict", min_slope=0.01, iterations_per_anchor=6),
        fem=FemBlock(lattice_grid=2)), {
        "columns.csv": "26bcb96bb6fa117d9bf832cd5c15b7b548a67ea3f8c092c1ec4755027444af21",
        "ranking.csv": "860b6f6a35680d37b51e9a8c89e8d06b20aa852b85822da9701a65578d0f150d",
        "slope_failures.csv":
            "30814f17394913aff208800fafe4057533d8a4b6ab0adc4ae20c006fc5c1e01a",
        "winner.mesh": "2726244276e98831f90eb177a589ee93dccf6a2b452512ae2d7beeeaa5a7b9a8",
        "winner_displacements.csv":
            "f6bcdcc89b3b57eec3fb2d97c6ef6fd73be1c825256bea874331f919b4ddb8b4"}),
    "coarse-lattice": (PipelineConfig(seed=5, fem=FemBlock(lattice_grid=3)), {
        "columns.csv": "04e364722c68e3342c006675aa1ea43608a976442b184cc62258a748571a1d32",
        "ranking.csv": "bbc1fe0d4e9c64aef83c8fb334ef7264ff988734f752a0d52d6deefa0515137a",
        "slope_failures.csv":
            "df6bef12db8adc6917026ccf531665dcb3b1b7679590f758f42d5fa04dcdba4d",
        "winner.mesh": "beb03dd24e34b3cd638e5e744be76ed32e525a39c0b107e1207efdbf4b388d59",
        "winner_displacements.csv":
            "3aa40930c725d8bfe35c7d465b6e6dca39a61a680dc316fe724227a7ff9f772b"}),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STUDIES))
def test_optimize_stage_reproduces_its_pinned_digests(tmp_path, name):
    config, digests = _PINNED_STUDIES[name]
    out = RunDir.create(tmp_path)
    stage_optimize(config, out)
    assert out.digests == {f"optimize/{rel}": d for rel, d in digests.items()}
    assert {p.name for p in (tmp_path / "optimize").iterdir()} == set(digests)
    if name == "strict":
        rows = (tmp_path / "optimize/ranking.csv").read_text().splitlines()[1:]
        assert [r.split(",")[10] for r in rows].count("0") == 17


# One changed, valid value per config key.  Weights move in pairs that keep
# their sum at 1; the explicit tolerances change against a base that uses
# them; gen3d.span_mm grows, since a plan smaller than the plan area is refused.
_CHANGES = {
    "unit.shape": {"shape": "circular"},
    "unit.member_length_mm": {"member_length_mm": 12.0},
    "unit.rod_diameter_mm": {"rod_diameter_mm": 1.2},
    "unit.target_ratio": {"target_ratio": 0.1},
    "unit.density_g_cm3": {"density_g_cm3": 1.2},
    "sweep2d.shape": {"shape": "circular"},
    "sweep2d.amplitude_step_mm": {"amplitude_step_mm": 10.0},
    "sweep2d.frequency_start": {"frequency_start": 4},
    "sweep2d.frequency_max": {"frequency_max": 9},
    "sweep2d.span_mm": {"span_mm": 1000.0},
    "gen3d.iterations": {"iterations": 4},
    "gen3d.groups": {"groups": 3},
    "gen3d.span_mm": {"span_mm": 2500.0},
    "gen3d.resolution": {"resolution": 48},
    "filter.keep": {"keep": 3},
    "filter.tolerance_mode": {"tolerance_mode": "explicit"},
    "filter.perimeter_tolerance_m": {"perimeter_tolerance_m": 0.01},
    "filter.area_tolerance_m2": {"area_tolerance_m2": 0.01},
    "loads.plan_area_m2": {"plan_area_m2": 2.0},
    "loads.thickness_m": {"thickness_m": 0.04},
    "loads.unit_weight_kn_m3": {"unit_weight_kn_m3": 0.565},
    "loads.snow_shape_factor": {"snow_shape_factor": 0.4},
    "loads.wind_shape_factor": {"wind_shape_factor": 0.375},
    "loads.solid_fraction": {"solid_fraction": 0.04},
    "fem.elastic_modulus_pa": {"elastic_modulus_pa": 1.05e9},
    "fem.shear_modulus_pa": {"shear_modulus_pa": 0.39e9},
    "fem.lattice_grid": {"lattice_grid": 12},
    "fem.supports": {"supports": "corner-pinned"},
    "optimizer.iterations_per_anchor": {"iterations_per_anchor": 3},
    "optimizer.amplitude_cap_m": {"amplitude_cap_m": 2.5},
    "optimizer.amplitude_min_fraction": {"amplitude_min_fraction": 0.3},
    "optimizer.control_F": {"control_F": 3},
    "optimizer.weight_cms": {"weight_cms": 0.5, "weight_ua": 0.3},
    "optimizer.weight_ua": {"weight_ua": 0.5, "weight_cms": 0.3},
    "optimizer.weight_lc": {"weight_lc": 0.2, "weight_fc": 0.0},
    "optimizer.weight_fc": {"weight_fc": 0.2, "weight_lc": 0.0},
    "optimizer.min_slope": {"min_slope": 0.5},
    "optimizer.slope_rule": {"slope_rule": "strict"},
    "optimizer.headroom_m": {"headroom_m": 1.0},
    "optimizer.column_section_side_m": {"column_section_side_m": 0.08},
    "optimizer.reduction_tolerance": {"reduction_tolerance": 0.0},
    "run.threads": {"threads": 2},
}

# Keys that change no output but config.ini.  Each must keep changing
# nothing; wiring a key to its result or deleting it takes it off this list.
_DEAD_KEYS = {"unit.shape", "unit.member_length_mm", "unit.rod_diameter_mm",
              "sweep2d.amplitude_step_mm", "sweep2d.frequency_start", "run.threads"}

# the stage directories a key of each block must change
_BLOCK_STAGES = {"unit": {"units"}, "sweep2d": {"sweep2d"}, "gen3d": {"gen3d"},
                 "filter": {"filter"}, "loads": {"analyze", "optimize"},
                 "fem": {"analyze", "optimize"}, "optimizer": {"optimize"}}
# the shelter study frames its candidates on their own supports
_KEY_STAGES = {"fem.supports": {"analyze"}}

_CONFIG_KEYS = ([f"{block}.{f.name}" for block in _BLOCK_NAMES
                 for f in fields(getattr(PipelineConfig(), block))]
                + ["run.threads"])

_EXPLICIT_KEYS = ("filter.perimeter_tolerance_m", "filter.area_tolerance_m2")


def _key_base(explicit: bool) -> PipelineConfig:
    """A trimmed run every stage executes, with explicit tolerances or auto ones."""
    base = _trimmed_config(gen3d=Gen3dBlock(iterations=3, groups=2),
                           optimizer=OptimizerBlock(iterations_per_anchor=1))
    if explicit:
        base = replace(base, filter=replace(base.filter, tolerance_mode="explicit"))
    return base


def _with_change(config: PipelineConfig, name: str) -> PipelineConfig:
    block, _ = name.split(".")
    if block == "run":
        return replace(config, **_CHANGES[name])
    return replace(config, **{block: replace(getattr(config, block), **_CHANGES[name])})


def _stage_digests(config: PipelineConfig, path: Path) -> dict:
    """One digest per stage directory over its outputs' digests; config.ini left out."""
    outputs = _read_manifest(run_pipeline(config, path))["outputs"]
    lines: dict = {}
    for rel in sorted(outputs):
        if rel != "config.ini":
            lines.setdefault(rel.split("/", 1)[0], []).append(f"{rel}={outputs[rel]}\n")
    return {stage: hashlib.sha256("".join(rows).encode()).hexdigest()
            for stage, rows in lines.items()}


@pytest.fixture(scope="module")
def key_base_digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("key-base")
    return {explicit: _stage_digests(_key_base(explicit), root / str(explicit))
            for explicit in (False, True)}


def test_the_key_table_names_every_config_key_and_no_other():
    assert sorted(_CHANGES) == sorted(_CONFIG_KEYS)
    assert _DEAD_KEYS <= set(_CONFIG_KEYS)


def _check_key(key_base_digests, tmp_path, name: str) -> None:
    assert name in _CHANGES, f"no changed value for {name}"
    explicit = name in _EXPLICIT_KEYS
    before = key_base_digests[explicit]
    after = _stage_digests(_with_change(_key_base(explicit), name), tmp_path / "run")
    moved = {stage for stage in set(before) | set(after)
             if before.get(stage) != after.get(stage)}
    if name in _DEAD_KEYS:
        assert not moved, f"{name} is listed as dead but changes {sorted(moved)}"
        return
    expected = _KEY_STAGES.get(name, _BLOCK_STAGES[name.split(".")[0]])
    assert expected <= moved, f"{name} changes {sorted(moved)}, not {sorted(expected)}"


# one check for every key, grouped by block
@pytest.mark.parametrize("name", [n for n in _CONFIG_KEYS
                                  if n.split(".")[0] not in ("loads", "fem", "optimizer")])
def test_every_config_key_changes_its_stage(key_base_digests, tmp_path, name):
    _check_key(key_base_digests, tmp_path, name)


@pytest.mark.parametrize("block,key", [tuple(n.split(".")) for n in _CONFIG_KEYS
                                       if n.split(".")[0] in ("loads", "fem")])
def test_every_structural_key_changes_the_solves(key_base_digests, tmp_path, block, key):
    _check_key(key_base_digests, tmp_path, f"{block}.{key}")


@pytest.mark.parametrize("key", [f.name for f in fields(OptimizerBlock)])
def test_every_optimizer_key_reaches_the_study(key_base_digests, tmp_path, key):
    _check_key(key_base_digests, tmp_path, f"optimizer.{key}")
