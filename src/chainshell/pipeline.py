"""Staged batch pipeline: units, 2D sweep, 3D generation, filtering,
structural analysis, shelter optimization.

Every stage writes CSV/mesh/image outputs into its own subdirectory of the
run directory; a manifest records the config hash, seed, per-stage wall
times, and output digests.  Identical config and seed reproduce
byte-identical CSVs and the same manifest hash (wall times are excluded
from the hash).
"""

from __future__ import annotations

import hashlib
import itertools
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import filtering, loads, profile2d, shell3d, units
from .config import PipelineConfig, config_hash, derive_seed, dump_config, validate
from .errors import StageError
from .fem import analyze_shell, default_supports
from .optimizer import optimize

STAGES = ("units", "sweep2d", "gen3d", "filter", "analyze", "optimize")
GROUP_SHAPE = units.Shape.RECTANGULAR  # printed group parameters are rectangular


def _fmt(value: float, nd: int = 6) -> str:
    return f"{value:.{nd}f}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def stage_units(config: PipelineConfig, run_dir: Path) -> List[str]:
    rows = ["shape,member_length_mm,rod_diameter_mm,pitch_mm,solid_to_gap_ratio,"
            "centreline_mm,moment_of_inertia,unit_volume_mm3,unit_weight_g"]
    for shape in units.Shape:
        L, d = units.STANDARD_DIMENSIONS[shape.value]
        cell = units.standard_cell(shape, target_ratio=config.unit.target_ratio)
        ratio = units.solid_to_gap_ratio(cell)
        volume = units.unit_solid_volume(cell)
        weight = volume * config.unit.density_g_cm3 * 1e-3
        rows.append(",".join([
            shape.value, _fmt(L, 3), _fmt(d, 3), _fmt(cell.cell_pitch, 6),
            _fmt(ratio, 6), _fmt(cell.centreline_length(), 3),
            _fmt(units.moment_of_inertia(cell), 6), _fmt(volume, 6),
            _fmt(weight, 6)]))
    _write_text(run_dir / "units" / "units.csv", "\n".join(rows) + "\n")
    return ["units/units.csv"]


def stage_sweep2d(config: PipelineConfig, run_dir: Path) -> List[str]:
    shape = units.Shape.parse(config.sweep2d.shape)
    envelope = profile2d.default_envelope(shape)
    report = profile2d.sweep_2d(shape, envelope,
                                f_max=config.sweep2d.frequency_max,
                                span_L=config.sweep2d.span_mm)
    rows = ["shape,amplitude_mm,frequency,feasible,peak_curvature_per_mm"]
    for cell in report.cells:
        rows.append(",".join([
            shape.value, _fmt(cell.amplitude_A, 1), str(cell.frequency_f),
            "1" if cell.feasible else "0", _fmt(cell.peak_curvature, 9)]))
    best_a, best_f = report.max_feasible_cell
    _write_text(run_dir / "sweep2d" / "sweep2d.csv", "\n".join(rows) + "\n")
    summary = ("shape,max_amplitude_mm,max_frequency\n"
               f"{shape.value},{_fmt(best_a, 1)},{best_f}\n")
    _write_text(run_dir / "sweep2d" / "max_feasible.csv", summary)
    return ["sweep2d/sweep2d.csv", "sweep2d/max_feasible.csv"]


def _group_surfaces(config: PipelineConfig, group: int):
    amplitude, frequency = shell3d.group_parameters(group)
    seed = derive_seed(config.seed, f"gen3d:g{group}")
    envelope = profile2d.default_envelope(GROUP_SHAPE)
    grids = shell3d.generate_iterations(amplitude, frequency,
                                        n=config.gen3d.iterations, seed=seed,
                                        span=config.gen3d.span_mm,
                                        envelope=envelope)
    surfaces = [shell3d.interpolate_surface(g, config.gen3d.resolution)
                for g in grids]
    return amplitude, frequency, seed, grids, surfaces


def write_pool(pool_dir: Path, amplitude: float, frequency: int, seed: int,
               grids: List[shell3d.ControlGrid],
               surfaces: List[shell3d.ShellSurface]) -> List[filtering.SurfaceMetrics]:
    """Write a pool's iterNN.mesh, iterNN.pgm and manifest.csv; return its metrics."""
    rows = ["iteration,amplitude_mm,frequency,seed,min_z_mm,max_z_mm,"
            "area_m2,perimeter_m"]
    metrics = []
    for i, (grid, surface) in enumerate(zip(grids, surfaces)):
        with _opened(pool_dir / f"iter{i:02d}.mesh") as fh:
            shell3d.write_mesh(surface.mesh, fh)
        with open(pool_dir / f"iter{i:02d}.pgm", "wb") as fh:
            shell3d.write_pgm(shell3d.depth_map(surface, 128), fh)
        m = filtering.measure(surface)
        rows.append(",".join([
            str(i), _fmt(amplitude, 1), str(frequency), str(seed),
            _fmt(float(grid.z_values.min()), 6),
            _fmt(float(grid.z_values.max()), 6),
            _fmt(m.area_a, 9), _fmt(m.perimeter_P, 9)]))
        metrics.append(m)
    _write_text(pool_dir / "manifest.csv", "\n".join(rows) + "\n")
    return metrics


def stage_gen3d(config: PipelineConfig, run_dir: Path) -> Tuple[List[str], Dict]:
    outputs: List[str] = []
    carry: Dict[int, Dict] = {}
    for group in range(1, config.gen3d.groups + 1):
        amplitude, frequency, seed, grids, surfaces = _group_surfaces(config, group)
        metrics = write_pool(run_dir / "gen3d" / f"g{group}", amplitude, frequency,
                             seed, grids, surfaces)
        outputs += [f"gen3d/g{group}/iter{i:02d}.{ext}"
                    for i in range(len(grids)) for ext in ("mesh", "pgm")]
        outputs.append(f"gen3d/g{group}/manifest.csv")
        carry[group] = {"amplitude": amplitude, "frequency": frequency,
                        "seed": seed, "surfaces": surfaces, "metrics": metrics}
    return outputs, carry


def _opened(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_selected(path: Path, amplitude: float, frequency: int, seed: int,
                   outcome: filtering.FilterOutcome) -> None:
    """Write a pool's selected.csv: every member's metrics and kept flag."""
    rows = ["iteration,amplitude_mm,frequency,seed,perimeter_m,area_m2,"
            "kept,perimeter_tolerance_m,area_tolerance_m2"]
    for i, m in enumerate(outcome.metrics):
        rows.append(",".join([
            str(i), _fmt(amplitude, 1), str(frequency), str(seed),
            _fmt(m.perimeter_P, 9), _fmt(m.area_a, 9),
            "1" if i in outcome.kept_indices else "0",
            _fmt(outcome.dP, 9), _fmt(outcome.da, 9)]))
    _write_text(path, "\n".join(rows) + "\n")


def stage_filter(config: PipelineConfig, run_dir: Path,
                 gen_carry: Dict) -> Tuple[List[str], Dict]:
    outputs: List[str] = []
    carry: Dict[int, filtering.FilterOutcome] = {}
    for group, info in gen_carry.items():
        explicit = config.filter.tolerance_mode == "explicit"
        outcome = filtering.filter_surfaces(
            info["metrics"], k=config.filter.keep,
            dP=config.filter.perimeter_tolerance_m if explicit else None,
            da=config.filter.area_tolerance_m2 if explicit else None)
        rel = f"filter/g{group}/selected.csv"
        write_selected(run_dir / rel, info["amplitude"], info["frequency"],
                       info["seed"], outcome)
        outputs.append(rel)
        carry[group] = outcome
    return outputs, carry


def structure_spec(config: PipelineConfig) -> loads.StructureSpec:
    """The shell's structural model: every [loads] value and the two [fem]
    moduli, read from the config in this one place."""
    return loads.StructureSpec(
        plan_area_a=config.loads.plan_area_m2,
        thickness_t=config.loads.thickness_m,
        span_L=config.gen3d.span_mm / 1000.0,
        unit_weight_rho=config.loads.unit_weight_kn_m3,
        solid_fraction=config.loads.solid_fraction,
        snow_shape_factor=config.loads.snow_shape_factor,
        wind_shape_factor=config.loads.wind_shape_factor,
        elastic_modulus=config.fem.elastic_modulus_pa,
        shear_modulus=config.fem.shear_modulus_pa)


def analyze_model(config: PipelineConfig, surface: shell3d.ShellSurface,
                  area_m2: float) -> List[str]:
    """Load case and frame solve of one model, as displacements.csv columns.

    Columns: DL_kN, LL_kN, SL_kN, WL_kN, TL_kN, max_displacement_mm,
    limit_mm, passed.
    """
    spec = structure_spec(config)
    grid = config.fem.lattice_grid
    case = loads.combine(spec, area_m2)
    analysis = analyze_shell(surface, case, spec,
                             default_supports(grid, config.fem.supports), grid)
    return [_fmt(case.dead_DL, 4), _fmt(case.live_LL, 4), _fmt(case.snow_SL, 4),
            _fmt(case.wind_WL, 4), _fmt(case.total_TL, 4),
            _fmt(analysis.max_displacement_mm, 4), _fmt(analysis.limit_mm, 4),
            "1" if analysis.passed else "0"]


def stage_analyze(config: PipelineConfig, run_dir: Path, gen_carry: Dict,
                  filter_carry: Dict) -> List[str]:
    rows = ["model,group,iteration,DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,"
            "max_displacement_mm,limit_mm,passed"]
    for group, info in gen_carry.items():
        outcome = filter_carry[group]
        for idx in outcome.kept_indices:
            columns = analyze_model(config, info["surfaces"][idx],
                                    outcome.metrics[idx].area_a)
            rows.append(",".join([f"g{group}-{idx:02d}", str(group), str(idx)]
                                 + columns))
    _write_text(run_dir / "analyze" / "displacements.csv", "\n".join(rows) + "\n")
    return ["analyze/displacements.csv"]


def _ranking_rows(report) -> List[str]:
    rows = ["candidate,anchor_kind,rank,CMS_m2,UA_m2,LC_volume_m3,LC_count,"
            "FC_volume_m3,FC_count,min_slope,drainage_pass,grade_CMS,grade_UA,"
            "grade_LC,grade_FC,weighted_score"]
    for c in report.ranked:
        m = c.metrics
        rows.append(",".join([
            c.candidate_id, c.anchors.kind.value, str(c.rank),
            _fmt(m.cms_m2, 6), _fmt(m.ua_m2, 6), _fmt(m.lc_volume_m3, 9),
            str(m.lc_count), _fmt(m.fc_volume_m3, 9), str(m.fc_count),
            _fmt(m.min_slope_S, 6), "1",
            _fmt(c.grades["CMS"], 6), _fmt(c.grades["UA"], 6),
            _fmt(c.grades["LC"], 6), _fmt(c.grades["FC"], 6),
            _fmt(c.weighted_score, 6)]))
    for c in report.rejected:
        m = c.metrics
        rows.append(",".join([
            c.candidate_id, c.anchors.kind.value, "", _fmt(m.cms_m2, 6),
            _fmt(m.ua_m2, 6), _fmt(m.lc_volume_m3, 9), str(m.lc_count),
            _fmt(m.fc_volume_m3, 9), str(m.fc_count), _fmt(m.min_slope_S, 6),
            "0", "", "", "", "", ""]))
    return rows


def node_displacement_rows(displacements: np.ndarray, coords_m: np.ndarray) -> str:
    """`node,x_m,y_m,ux_mm,uy_mm,uz_mm,translation_mm` lines of a lattice solve.

    Node i * n + j sits at (coords_m[i], coords_m[j]); displacements are
    the solver's per-node rows in metres, written in mm.
    """
    n = len(coords_m)
    t = displacements[:n * n, :3] * 1000.0
    i, j = np.divmod(np.arange(n * n), n)
    # one np.linalg.norm per node row keeps its bits; %.Nf formats a float
    # exactly as _fmt does
    norms = [float(np.linalg.norm(row)) for row in t]
    values = zip(range(n * n), coords_m[i].tolist(), coords_m[j].tolist(),
                 *t.T.tolist(), norms)
    return (("%d,%.4f,%.4f,%.6f,%.6f,%.6f,%.6f\n" * (n * n))
            % tuple(itertools.chain.from_iterable(values)))


def stage_optimize(config: PipelineConfig, run_dir: Path) -> Tuple[List[str], Dict]:
    result = optimize(config, structure_spec(config),
                      derive_seed(config.seed, "optimize"))

    outputs: List[str] = []
    rows = _ranking_rows(result.report)
    _write_text(run_dir / "optimize" / "ranking.csv", "\n".join(rows) + "\n")
    outputs.append("optimize/ranking.csv")

    marker_rows = ["candidate,x_m,y_m"]
    for c in tuple(result.report.ranked) + tuple(result.report.rejected):
        for (x, y) in c.slope_report.failing_points:
            marker_rows.append(f"{c.candidate_id},{_fmt(x, 4)},{_fmt(y, 4)}")
    _write_text(run_dir / "optimize" / "slope_failures.csv",
                "\n".join(marker_rows) + "\n")
    outputs.append("optimize/slope_failures.csv")

    if result.winner is not None:
        with _opened(run_dir / "optimize" / "winner.mesh") as fh:
            shell3d.write_mesh(result.winner.surface.mesh, fh)
        outputs.append("optimize/winner.mesh")

        analysis = result.winner_analysis
        coords = np.linspace(0.0, config.gen3d.span_mm / 1000.0,
                             config.fem.lattice_grid + 1)
        footer = (f"# max_displacement_mm={_fmt(analysis.max_displacement_mm, 6)}"
                  f" limit_mm={_fmt(result.limit_mm, 4)}"
                  f" passed={'1' if analysis.passed else '0'}\n")
        _write_text(run_dir / "optimize" / "winner_displacements.csv",
                    "node,x_m,y_m,ux_mm,uy_mm,uz_mm,translation_mm\n"
                    + node_displacement_rows(analysis.result.displacements, coords)
                    + footer)
        outputs.append("optimize/winner_displacements.csv")

        crows = ["role,x_m,y_m,height_m,volume_m3,kept"]
        kept_fw = set(result.reduced_columns.formwork)
        for col in result.winner.columns.load_bearing:
            crows.append(f"load-bearing,{_fmt(col.position[0], 4)},"
                         f"{_fmt(col.position[1], 4)},{_fmt(col.height, 6)},"
                         f"{_fmt(col.volume, 9)},1")
        for col in result.winner.columns.formwork:
            crows.append(f"formwork,{_fmt(col.position[0], 4)},"
                         f"{_fmt(col.position[1], 4)},{_fmt(col.height, 6)},"
                         f"{_fmt(col.volume, 9)},{'1' if col in kept_fw else '0'}")
        _write_text(run_dir / "optimize" / "columns.csv", "\n".join(crows) + "\n")
        outputs.append("optimize/columns.csv")
    return outputs, {"result": result}


def _manifest_hash(cfg_hash: str, seed: int, status: str,
                   output_hashes: Dict[str, str]) -> str:
    h = hashlib.sha256()
    h.update(f"config={cfg_hash}\nseed={seed}\nstatus={status}\n".encode())
    for rel in sorted(output_hashes):
        h.update(f"{rel}={output_hashes[rel]}\n".encode())
    return h.hexdigest()


def _write_manifest(run_dir: Path, config: PipelineConfig, status: str,
                    timings: Dict[str, float], outputs: List[str],
                    failed_stage: Optional[str] = None,
                    error: Optional[str] = None) -> None:
    cfg_hash = config_hash(config)
    hashes = {rel: _sha256_file(run_dir / rel) for rel in outputs}
    mhash = _manifest_hash(cfg_hash, config.seed, status, hashes)
    lines = ["[run]",
             f"seed = {config.seed}",
             f"config_hash = {cfg_hash}",
             f"status = {status}"]
    if failed_stage:
        lines.append(f"failed_stage = {failed_stage}")
    if error:
        lines.append(f"error = {error}")
    lines.append(f"manifest_hash = {mhash}")
    lines.append("")
    lines.append("[timings]")
    for stage, seconds in timings.items():
        lines.append(f"{stage}_s = {seconds:.3f}")
    lines.append("")
    lines.append("[outputs]")
    for rel in sorted(hashes):
        lines.append(f"{rel} = {hashes[rel]}")
    _write_text(run_dir / "manifest.txt", "\n".join(lines) + "\n")


def read_manifest_hash(run_dir: Path) -> str:
    for line in (Path(run_dir) / "manifest.txt").read_text().splitlines():
        if line.startswith("manifest_hash"):
            return line.split("=", 1)[1].strip()
    raise StageError("manifest", "manifest_hash missing")


def run_pipeline(config: PipelineConfig, out_dir) -> Path:
    """Execute all stages in order; returns the run directory.

    A stage failure halts the pipeline, preserves prior outputs, and writes
    an incomplete manifest naming the stage and cause before re-raising as
    a stage error.
    """
    config = validate(config)
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_text(run_dir / "config.ini", dump_config(config))

    outputs: List[str] = ["config.ini"]
    timings: Dict[str, float] = {}
    gen_carry: Dict = {}
    filter_carry: Dict = {}
    stage = "units"
    try:
        for stage in STAGES:
            t0 = time.perf_counter()
            if stage == "units":
                outputs += stage_units(config, run_dir)
            elif stage == "sweep2d":
                outputs += stage_sweep2d(config, run_dir)
            elif stage == "gen3d":
                new, gen_carry = stage_gen3d(config, run_dir)
                outputs += new
            elif stage == "filter":
                new, filter_carry = stage_filter(config, run_dir, gen_carry)
                outputs += new
            elif stage == "analyze":
                outputs += stage_analyze(config, run_dir, gen_carry, filter_carry)
            elif stage == "optimize":
                new, _ = stage_optimize(config, run_dir)
                outputs += new
            timings[stage] = time.perf_counter() - t0
    except Exception as exc:
        _write_manifest(run_dir, config, "incomplete", timings, outputs,
                        failed_stage=stage, error=str(exc))
        raise StageError(stage, exc) from exc
    _write_manifest(run_dir, config, "complete", timings, outputs)
    return run_dir
