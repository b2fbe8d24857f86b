"""Staged batch pipeline: units, 2D sweep, 3D generation, filtering,
structural analysis, shelter optimization.

Every stage writes CSV/mesh/image outputs into its own subdirectory of the
run directory through `write_output`, which records each file's sha256 as
it writes it; a manifest records the config hash, seed, per-stage wall
times, and those digests.  Identical config and seed reproduce
byte-identical CSVs and the same manifest hash (wall times are excluded
from the hash).
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import filtering, loads, profile2d, shell3d, units
from .config import PipelineConfig, config_hash, derive_seed, dump_config, validate
from .errors import ConfigError, ParameterError, StageError
from .fem import analyze_shell, default_supports
from .optimizer import (COLUMN_ORDER, COLUMN_POSITIONS_M, KINDS, LOAD_BEARING, MAX_SECTION_SIDE_M,
                        OptimizeResult, drainage_points_m, optimize)

STAGES = ("units", "sweep2d", "gen3d", "filter", "analyze", "optimize")


def _fmt(value: float, nd: int = 6) -> str:
    return f"{value:.{nd}f}"


@dataclass
class RunDir:
    """A directory outputs are written under, and the sha256 of each
    output written so far, keyed by its '/'-separated relative path."""
    path: Path
    digests: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def create(cls, path) -> "RunDir":
        """Make the directory; a file in the way is bad input, not a stage failure."""
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ParameterError(f"not a directory: {path}") from None
        return cls(path)


def write_output(out: RunDir, rel: str, data) -> None:
    """Write text (UTF-8, as given) or bytes to `rel` under the run
    directory, making its parent, and record the sha256 of the bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = out.path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    out.digests[rel] = hashlib.sha256(data).hexdigest()


def stage_units(config: PipelineConfig, out: RunDir) -> None:
    rows = ["shape,member_length_mm,rod_diameter_mm,pitch_mm,solid_to_gap_ratio,"
            "centreline_mm,moment_of_inertia,unit_volume_mm3,unit_weight_g"]
    for shape in units.Shape:
        L, d = units.STANDARD_DIMENSIONS[shape.value]
        cell = units.standard_cell(shape, target_ratio=config.unit.target_ratio)
        ratio = units.solid_to_gap_ratio(cell)
        volume = units.unit_solid_volume(cell)
        weight = units.sheet_weight(cell, 1, 1, config.unit.density_g_cm3)
        rows.append(",".join([
            shape.value, _fmt(L, 3), _fmt(d, 3), _fmt(cell.cell_pitch, 6),
            _fmt(ratio, 6), _fmt(cell.centreline_length(), 3),
            _fmt(units.moment_of_inertia(cell), 6), _fmt(volume, 6),
            _fmt(weight, 6)]))
    write_output(out, "units/units.csv", "\n".join(rows) + "\n")


def stage_sweep2d(config: PipelineConfig, out: RunDir) -> None:
    shape = units.Shape(config.sweep2d.shape)
    cells = profile2d.sweep_2d(profile2d.DEFAULT_ENVELOPE_TABLE[shape],
                               f_max=config.sweep2d.frequency_max,
                               span_mm=config.sweep2d.span_mm)
    rows = ["shape,amplitude_mm,frequency,feasible,peak_curvature_per_mm"]
    for amplitude, frequency, feasible, curvature in cells:
        rows.append(",".join([
            shape.value, _fmt(amplitude, 1), str(frequency),
            "1" if feasible else "0", _fmt(curvature, 9)]))
    # A = 0 is feasible at every frequency, so some cell always is
    best_a, best_f = max((a, f) for a, f, feasible, _ in cells if feasible)
    write_output(out, "sweep2d/sweep2d.csv", "\n".join(rows) + "\n")
    write_output(out, "sweep2d/max_feasible.csv",
                 "shape,max_amplitude_mm,max_frequency\n"
                 f"{shape.value},{_fmt(best_a, 1)},{best_f}\n")


def pool_grids(config: PipelineConfig, amplitude: float, frequency: int,
               seed: int) -> np.ndarray:
    """The (n, f, f) control grids (mm) of one gen3d pool: n = [gen3d]
    iterations over [gen3d] span_mm, checked against the rectangular
    envelope the study groups are printed in, whatever [sweep2d] shape the
    sweep charts."""
    profile2d.require_feasible(shell3d.GROUP_SHAPE, amplitude, frequency)
    return shell3d.generate_iterations(amplitude, frequency, config.gen3d.iterations,
                                       seed, config.gen3d.span_mm)


def _group_grids(config: PipelineConfig, group: int):
    amplitude, frequency = shell3d.group_parameters(group)
    seed = derive_seed(config.seed, f"gen3d:g{group}")
    return amplitude, frequency, seed, pool_grids(config, amplitude, frequency, seed)


def write_pool(config: PipelineConfig, out: RunDir, prefix: str, amplitude: float,
               frequency: int, seed: int,
               grids: np.ndarray) -> List[filtering.SurfaceMetrics]:
    """Write a pool's iterNN.mesh, iterNN.pgm and manifest.csv under
    `prefix` (a relative directory ending in '/', or ''); return its metrics.

    Each surface is built from its grid over [gen3d] span_mm at [gen3d]
    resolution, written, measured and dropped before the next, so one pool
    surface is alive at a time.
    """
    rows = ["iteration,amplitude_mm,frequency,seed,min_z_mm,max_z_mm,"
            "area_m2,perimeter_m"]
    metrics = []
    for i, grid in enumerate(grids):
        surface = shell3d.interpolate_surface(grid, config.gen3d.span_mm,
                                              config.gen3d.resolution)
        write_output(out, f"{prefix}iter{i:02d}.mesh", shell3d.write_mesh(surface.mesh))
        write_output(out, f"{prefix}iter{i:02d}.pgm",
                     shell3d.write_pgm(shell3d.depth_map(surface, 128)))
        m = filtering.measure(surface)
        rows.append(",".join([
            str(i), _fmt(amplitude, 1), str(frequency), str(seed),
            _fmt(float(grid.min()), 6), _fmt(float(grid.max()), 6),
            _fmt(m.area_a, 9), _fmt(m.perimeter_P, 9)]))
        metrics.append(m)
    write_output(out, f"{prefix}manifest.csv", "\n".join(rows) + "\n")
    return metrics


def stage_gen3d(config: PipelineConfig, out: RunDir) -> Dict:
    """Write every group's pool; the carry holds each pool's grids and metrics."""
    carry: Dict[int, Dict] = {}
    for group in range(1, config.gen3d.groups + 1):
        amplitude, frequency, seed, grids = _group_grids(config, group)
        metrics = write_pool(config, out, f"gen3d/g{group}/", amplitude, frequency,
                             seed, grids)
        carry[group] = {"amplitude": amplitude, "frequency": frequency,
                        "seed": seed, "grids": grids, "metrics": metrics}
    return carry


def write_selected(out: RunDir, rel: str, amplitude: float, frequency: int,
                   seed: int, metrics: List[filtering.SurfaceMetrics],
                   kept: List[int], dP: float, da: float) -> None:
    """Write a pool's selected.csv to `rel`: every member's metrics, its
    kept flag and the tolerances the selection used."""
    rows = ["iteration,amplitude_mm,frequency,seed,perimeter_m,area_m2,"
            "kept,perimeter_tolerance_m,area_tolerance_m2"]
    for i, m in enumerate(metrics):
        rows.append(",".join([
            str(i), _fmt(amplitude, 1), str(frequency), str(seed),
            _fmt(m.perimeter_P, 9), _fmt(m.area_a, 9),
            "1" if i in kept else "0", _fmt(dP, 9), _fmt(da, 9)]))
    write_output(out, rel, "\n".join(rows) + "\n")


def filter_pool(config: PipelineConfig, metrics: List[filtering.SurfaceMetrics]
                ) -> Tuple[List[int], float, float]:
    """Select a measured pool's distinct members under the [filter] block:
    (kept indices, dP, da)."""
    explicit = config.filter.tolerance_mode == "explicit"
    return filtering.filter_surfaces(
        metrics, k=config.filter.keep,
        dP=config.filter.perimeter_tolerance_m if explicit else None,
        da=config.filter.area_tolerance_m2 if explicit else None)


def stage_filter(config: PipelineConfig, out: RunDir, gen_carry: Dict) -> Dict:
    """Select and write every group's pool; the carry holds each group's
    kept indices."""
    carry: Dict[int, List[int]] = {}
    for group, info in gen_carry.items():
        kept, dP, da = filter_pool(config, info["metrics"])
        write_selected(out, f"filter/g{group}/selected.csv", info["amplitude"],
                       info["frequency"], info["seed"], info["metrics"], kept, dP, da)
        carry[group] = kept
    return carry


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

    The surface is the model's control grid over [gen3d] span_mm at [gen3d]
    resolution, bit-identical to the one its pool wrote and measured.
    Columns: DL_kN, LL_kN, SL_kN, WL_kN, TL_kN, max_displacement_mm,
    limit_mm, passed.
    """
    spec = structure_spec(config)
    grid = config.fem.lattice_grid
    case = loads.combine(spec, area_m2)
    result = analyze_shell(surface, case, spec,
                           default_supports(grid, config.fem.supports), grid)
    limit = loads.deflection_limit(spec.span_L)
    return [_fmt(case.dead_DL, 4), _fmt(case.live_LL, 4), _fmt(case.snow_SL, 4),
            _fmt(case.wind_WL, 4), _fmt(case.total_TL, 4),
            _fmt(result.max_translation_mm, 4), _fmt(limit, 4),
            "1" if result.max_translation_mm <= limit else "0"]


def stage_analyze(config: PipelineConfig, out: RunDir, gen_carry: Dict,
                  filter_carry: Dict) -> None:
    rows = ["model,group,iteration,DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,"
            "max_displacement_mm,limit_mm,passed"]
    for group, info in gen_carry.items():
        for idx in filter_carry[group]:
            surface = shell3d.interpolate_surface(
                info["grids"][idx], config.gen3d.span_mm, config.gen3d.resolution)
            columns = analyze_model(config, surface, info["metrics"][idx].area_a)
            rows.append(",".join([f"g{group}-{idx:02d}", str(group), str(idx)]
                                 + columns))
    write_output(out, "analyze/displacements.csv", "\n".join(rows) + "\n")


def _format_rows(template: str, columns: Sequence[Sequence]) -> str:
    """One template line per row of the columns, formatted in one call; %.Nf
    formats a float exactly as _fmt does."""
    return (template * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def _ranking_csv(result: OptimizeResult) -> str:
    """ranking.csv: the ranked candidates by rank, then the rejected ones
    with rank and grades left blank."""
    study, order = result.study, result.order
    ranked = int(study.drains.sum())
    top = order[:ranked]  # the survivors, best first
    names = np.array([kind.value for kind in KINDS])[study.kinds[order]].tolist()
    ids, metrics = study.ids[order].tolist(), [column[order].tolist() for column in (
        study.cms_m2, study.ua_m2, study.lc_m3, study.fc_m3, study.min_slope)]
    lc, fc = int(LOAD_BEARING.sum()), int((~LOAD_BEARING).sum())
    return ("candidate,anchor_kind,rank,CMS_m2,UA_m2,LC_volume_m3,LC_count,"
            "FC_volume_m3,FC_count,min_slope,drainage_pass,grade_CMS,grade_UA,"
            "grade_LC,grade_FC,weighted_score\n"
            + _format_rows(f"%s,%s,%d,%.6f,%.6f,%.9f,{lc},%.9f,{fc},%.6f,1,"
                           "%.6f,%.6f,%.6f,%.6f,%.6f\n",
                           [ids[:ranked], names[:ranked], range(1, ranked + 1),
                            *(column[:ranked] for column in metrics),
                            *result.grades[top].T.tolist(), result.scores[top].tolist()])
            + _format_rows(f"%s,%s,,%.6f,%.6f,%.9f,{lc},%.9f,{fc},%.6f,0,,,,,\n",
                           [column[ranked:] for column in [ids, names, *metrics]]))


def node_displacement_rows(displacements: np.ndarray, coords_m: np.ndarray) -> str:
    """`node,x_m,y_m,ux_mm,uy_mm,uz_mm,translation_mm` lines of a lattice solve.

    Node i * n + j sits at (coords_m[i], coords_m[j]); displacements are
    the solver's per-node rows in metres, written in mm.
    """
    n = len(coords_m)
    t = displacements[:n * n, :3] * 1000.0
    i, j = np.divmod(np.arange(n * n), n)
    # one np.linalg.norm per node row keeps its bits
    norms = [float(np.linalg.norm(row)) for row in t]
    return _format_rows("%d,%.4f,%.4f,%.6f,%.6f,%.6f,%.6f\n",
                        [range(n * n), coords_m[i].tolist(), coords_m[j].tolist(),
                         *t.T.tolist(), norms])


def stage_optimize(config: PipelineConfig, out: RunDir) -> None:
    spec = structure_spec(config)
    result = optimize(config, spec, derive_seed(config.seed, "optimize"))
    study = result.study
    write_output(out, "optimize/ranking.csv", _ranking_csv(result))

    # each candidate's failing points in row-major grid order, candidates in ranking order
    rows, points = np.nonzero(study.fails[result.order])
    xy = drainage_points_m(config.gen3d.span_mm)[points]
    write_output(out, "optimize/slope_failures.csv", "candidate,x_m,y_m\n" + _format_rows(
        "%s,%.4f,%.4f\n", [study.ids[result.order[rows]].tolist(), *xy.T.tolist()]))

    if result.winner_surface is not None:
        write_output(out, "optimize/winner.mesh",
                     shell3d.write_mesh(result.winner_surface.mesh))

        solved = result.winner_analysis
        limit = loads.deflection_limit(spec.span_L)
        coords = np.linspace(0.0, spec.span_L, config.fem.lattice_grid + 1)
        footer = (f"# max_displacement_mm={_fmt(solved.max_translation_mm, 6)}"
                  f" limit_mm={_fmt(limit, 4)}"
                  f" passed={'1' if solved.max_translation_mm <= limit else '0'}\n")
        write_output(out, "optimize/winner_displacements.csv",
                     "node,x_m,y_m,ux_mm,uy_mm,uz_mm,translation_mm\n"
                     + node_displacement_rows(solved.displacements, coords)
                     + footer)

        winner, k = result.order[0], COLUMN_ORDER
        write_output(out, "optimize/columns.csv", "role,x_m,y_m,height_m,volume_m3,kept\n"
                     + _format_rows("%s,%.4f,%.4f,%.6f,%.9f,%d\n", [
                         np.where(LOAD_BEARING[k], "load-bearing", "formwork").tolist(),
                         *COLUMN_POSITIONS_M[k].T.tolist(), study.heights_m[winner, k].tolist(),
                         study.volumes_m3[winner, k].tolist(), result.kept_columns[k].tolist()]))


def _manifest_hash(cfg_hash: str, seed: int, status: str,
                   output_hashes: Dict[str, str]) -> str:
    h = hashlib.sha256()
    h.update(f"config={cfg_hash}\nseed={seed}\nstatus={status}\n".encode())
    for rel in sorted(output_hashes):
        h.update(f"{rel}={output_hashes[rel]}\n".encode())
    return h.hexdigest()


def _write_manifest(out: RunDir, config: PipelineConfig, status: str,
                    timings: Dict[str, float],
                    failed_stage: Optional[str] = None,
                    error: Optional[str] = None) -> None:
    """Write manifest.txt, listing every output written so far with its digest."""
    cfg_hash = config_hash(config)
    mhash = _manifest_hash(cfg_hash, config.seed, status, out.digests)
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
    for rel in sorted(out.digests):
        lines.append(f"{rel} = {out.digests[rel]}")
    (out.path / "manifest.txt").write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _manifest_value(run_dir: Path, key: str) -> Optional[str]:
    """The value of `key = value` in a run directory's manifest.txt, or None."""
    text = (Path(run_dir) / "manifest.txt").read_text(encoding="utf-8", errors="replace")
    for line in text.splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            return value.strip()
    return None


def read_manifest_hash(run_dir: Path) -> str:
    value = _manifest_value(run_dir, "manifest_hash")
    if value is None:
        raise StageError("manifest", "manifest_hash missing")
    return value


def _refuse_foreign_run(out_dir: Path, cfg_hash: str) -> None:
    """A directory holding another config's run would keep that run's
    stale files next to this one's: bad input, refused before any write."""
    if (out_dir / "manifest.txt").is_file():
        theirs = _manifest_value(out_dir, "config_hash")
        if theirs != cfg_hash:
            raise ParameterError(
                f"{out_dir} holds a run of another config (config_hash {theirs}, "
                f"this run's is {cfg_hash}); write it to another directory")


def _plan_area_fits(config: PipelineConfig) -> None:
    """dead_load refuses a surface smaller than [loads] plan_area_m2, and a
    flat shell over the [gen3d] span has (span_mm / 1000)^2."""
    plan_m2 = (config.gen3d.span_mm / 1000.0) ** 2
    if config.loads.plan_area_m2 > plan_m2:
        raise ConfigError(
            f"loads.plan_area_m2 = {config.loads.plan_area_m2} exceeds the {plan_m2} m2 "
            f"plan of gen3d.span_mm = {config.gen3d.span_mm}", key="loads.plan_area_m2")


def _column_grid_fits(config: PipelineConfig) -> None:
    """Columns [optimizer] column_section_side_m wide must not overlap or cross
    the plan's near edges, and the farthest one's footprint must end in the span."""
    side = config.optimizer.column_section_side_m
    if side > MAX_SECTION_SIDE_M:
        raise ConfigError(
            f"optimizer.column_section_side_m = {side} exceeds the shelter column "
            f"grid's {MAX_SECTION_SIDE_M} m: neighbouring footprints would overlap "
            f"or cross the plan edge", key="optimizer.column_section_side_m")
    reach_m = float(COLUMN_POSITIONS_M.max()) + side / 2.0
    if reach_m > config.gen3d.span_mm / 1000.0:
        raise ConfigError(
            f"gen3d.span_mm = {config.gen3d.span_mm} is too small for the shelter "
            f"column grid: its columns of optimizer.column_section_side_m = {side} "
            f"reach {reach_m} m", key="gen3d.span_mm")


def check_config(config: PipelineConfig, stages=STAGES) -> PipelineConfig:
    """`validate(config)`, then the cross-key checks `stages` need (kept here, as
    the column grid is the optimizer's); call it before creating anything."""
    config = validate(config)
    if "analyze" in stages or "optimize" in stages:
        _plan_area_fits(config)
    if "optimize" in stages:
        _column_grid_fits(config)
    return config


def run_pipeline(config: PipelineConfig, out_dir) -> Path:
    """Execute all stages in order; returns the run directory.

    A config `check_config` refuses, or a directory whose manifest.txt
    records another config_hash, is refused before anything is written.  A
    stage failure halts the pipeline, preserves prior outputs, and writes an
    incomplete manifest naming the stage and cause, and listing every file
    written before it failed, before re-raising as a stage error.
    """
    config = check_config(config)
    _refuse_foreign_run(Path(out_dir), config_hash(config))
    out = RunDir.create(out_dir)
    write_output(out, "config.ini", dump_config(config))

    timings: Dict[str, float] = {}
    gen_carry: Dict = {}
    filter_carry: Dict = {}
    stage = "units"
    try:
        for stage in STAGES:
            t0 = time.perf_counter()
            if stage == "units":
                stage_units(config, out)
            elif stage == "sweep2d":
                stage_sweep2d(config, out)
            elif stage == "gen3d":
                gen_carry = stage_gen3d(config, out)
            elif stage == "filter":
                filter_carry = stage_filter(config, out, gen_carry)
            elif stage == "analyze":
                stage_analyze(config, out, gen_carry, filter_carry)
            elif stage == "optimize":
                stage_optimize(config, out)
            timings[stage] = time.perf_counter() - t0
    except Exception as exc:
        _write_manifest(out, config, "incomplete", timings,
                        failed_stage=stage, error=str(exc))
        raise StageError(stage, exc) from exc
    _write_manifest(out, config, "complete", timings)
    return out.path
