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
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from . import filtering, loads, profile2d, shell3d, units
from .config import PipelineConfig, config_hash, derive_seed, dump_config, validate
from .errors import ParameterError, StageError
from .fem import analyze_shell, default_supports
from .optimizer import optimize

STAGES = ("units", "sweep2d", "gen3d", "filter", "analyze", "optimize")
GROUP_SHAPE = units.Shape.RECTANGULAR  # printed group parameters are rectangular


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


def _rendered(write, value, empty):
    """What `write(value, stream)` writes, joined onto `empty` ("" or b"")."""
    parts: list = []
    write(value, SimpleNamespace(write=parts.append))
    return empty.join(parts)


def stage_units(config: PipelineConfig, out: RunDir) -> None:
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
    write_output(out, "units/units.csv", "\n".join(rows) + "\n")


def stage_sweep2d(config: PipelineConfig, out: RunDir) -> None:
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
    write_output(out, "sweep2d/sweep2d.csv", "\n".join(rows) + "\n")
    write_output(out, "sweep2d/max_feasible.csv",
                 "shape,max_amplitude_mm,max_frequency\n"
                 f"{shape.value},{_fmt(best_a, 1)},{best_f}\n")


def _group_grids(config: PipelineConfig, group: int):
    amplitude, frequency = shell3d.group_parameters(group)
    seed = derive_seed(config.seed, f"gen3d:g{group}")
    envelope = profile2d.default_envelope(GROUP_SHAPE)
    grids = shell3d.generate_iterations(amplitude, frequency,
                                        n=config.gen3d.iterations, seed=seed,
                                        span=config.gen3d.span_mm,
                                        envelope=envelope)
    return amplitude, frequency, seed, grids


def write_pool(out: RunDir, prefix: str, amplitude: float, frequency: int,
               seed: int, grids: List[shell3d.ControlGrid],
               resolution: int) -> List[filtering.SurfaceMetrics]:
    """Write a pool's iterNN.mesh, iterNN.pgm and manifest.csv under
    `prefix` (a relative directory ending in '/', or ''); return its metrics.

    Each surface is built from its grid, written, measured and dropped
    before the next, so one pool surface is alive at a time.
    """
    rows = ["iteration,amplitude_mm,frequency,seed,min_z_mm,max_z_mm,"
            "area_m2,perimeter_m"]
    metrics = []
    for i, grid in enumerate(grids):
        surface = shell3d.interpolate_surface(grid, resolution)
        write_output(out, f"{prefix}iter{i:02d}.mesh",
                     _rendered(shell3d.write_mesh, surface.mesh, ""))
        write_output(out, f"{prefix}iter{i:02d}.pgm",
                     _rendered(shell3d.write_pgm, shell3d.depth_map(surface, 128), b""))
        m = filtering.measure(surface)
        rows.append(",".join([
            str(i), _fmt(amplitude, 1), str(frequency), str(seed),
            _fmt(float(grid.z_values.min()), 6),
            _fmt(float(grid.z_values.max()), 6),
            _fmt(m.area_a, 9), _fmt(m.perimeter_P, 9)]))
        metrics.append(m)
    write_output(out, f"{prefix}manifest.csv", "\n".join(rows) + "\n")
    return metrics


def stage_gen3d(config: PipelineConfig, out: RunDir) -> Dict:
    """Write every group's pool; the carry holds each pool's grids and metrics."""
    carry: Dict[int, Dict] = {}
    for group in range(1, config.gen3d.groups + 1):
        amplitude, frequency, seed, grids = _group_grids(config, group)
        metrics = write_pool(out, f"gen3d/g{group}/", amplitude, frequency,
                             seed, grids, config.gen3d.resolution)
        carry[group] = {"amplitude": amplitude, "frequency": frequency,
                        "seed": seed, "grids": grids, "metrics": metrics}
    return carry


def write_selected(out: RunDir, rel: str, amplitude: float, frequency: int,
                   seed: int, outcome: filtering.FilterOutcome) -> None:
    """Write a pool's selected.csv to `rel`: every member's metrics and kept flag."""
    rows = ["iteration,amplitude_mm,frequency,seed,perimeter_m,area_m2,"
            "kept,perimeter_tolerance_m,area_tolerance_m2"]
    for i, m in enumerate(outcome.metrics):
        rows.append(",".join([
            str(i), _fmt(amplitude, 1), str(frequency), str(seed),
            _fmt(m.perimeter_P, 9), _fmt(m.area_a, 9),
            "1" if i in outcome.kept_indices else "0",
            _fmt(outcome.dP, 9), _fmt(outcome.da, 9)]))
    write_output(out, rel, "\n".join(rows) + "\n")


def filter_pool(config: PipelineConfig,
                metrics: List[filtering.SurfaceMetrics]) -> filtering.FilterOutcome:
    """Select a measured pool's distinct members under the [filter] block."""
    explicit = config.filter.tolerance_mode == "explicit"
    return filtering.filter_surfaces(
        metrics, k=config.filter.keep,
        dP=config.filter.perimeter_tolerance_m if explicit else None,
        da=config.filter.area_tolerance_m2 if explicit else None)


def stage_filter(config: PipelineConfig, out: RunDir, gen_carry: Dict) -> Dict:
    carry: Dict[int, filtering.FilterOutcome] = {}
    for group, info in gen_carry.items():
        outcome = filter_pool(config, info["metrics"])
        write_selected(out, f"filter/g{group}/selected.csv", info["amplitude"],
                       info["frequency"], info["seed"], outcome)
        carry[group] = outcome
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


def analyze_model(config: PipelineConfig, control: shell3d.ControlGrid,
                  area_m2: float) -> List[str]:
    """Load case and frame solve of one model, as displacements.csv columns.

    The model's surface is built here from its control grid at [gen3d]
    resolution, bit-identical to the one its pool wrote and measured.
    Columns: DL_kN, LL_kN, SL_kN, WL_kN, TL_kN, max_displacement_mm,
    limit_mm, passed.
    """
    surface = shell3d.interpolate_surface(control, config.gen3d.resolution)
    spec = structure_spec(config)
    grid = config.fem.lattice_grid
    case = loads.combine(spec, area_m2)
    analysis = analyze_shell(surface, case, spec,
                             default_supports(grid, config.fem.supports), grid)
    return [_fmt(case.dead_DL, 4), _fmt(case.live_LL, 4), _fmt(case.snow_SL, 4),
            _fmt(case.wind_WL, 4), _fmt(case.total_TL, 4),
            _fmt(analysis.max_displacement_mm, 4), _fmt(analysis.limit_mm, 4),
            "1" if analysis.passed else "0"]


def stage_analyze(config: PipelineConfig, out: RunDir, gen_carry: Dict,
                  filter_carry: Dict) -> None:
    rows = ["model,group,iteration,DL_kN,LL_kN,SL_kN,WL_kN,TL_kN,"
            "max_displacement_mm,limit_mm,passed"]
    for group, info in gen_carry.items():
        outcome = filter_carry[group]
        for idx in outcome.kept_indices:
            columns = analyze_model(config, info["grids"][idx],
                                    outcome.metrics[idx].area_a)
            rows.append(",".join([f"g{group}-{idx:02d}", str(group), str(idx)]
                                 + columns))
    write_output(out, "analyze/displacements.csv", "\n".join(rows) + "\n")


def _ranking_rows(report) -> List[str]:
    """Ranked candidates by rank, then the rejected ones with rank and
    grades left blank."""
    rows = ["candidate,anchor_kind,rank,CMS_m2,UA_m2,LC_volume_m3,LC_count,"
            "FC_volume_m3,FC_count,min_slope,drainage_pass,grade_CMS,grade_UA,"
            "grade_LC,grade_FC,weighted_score"]
    for rank, c in enumerate(report.ranked + report.rejected, start=1):
        graded = c.grades is not None
        columns, slopes = c.columns, c.slope_report
        scores = ([_fmt(c.grades[k], 6) for k in ("CMS", "UA", "LC", "FC")]
                  + [_fmt(c.weighted_score, 6)]) if graded else [""] * 5
        rows.append(",".join([
            c.candidate_id, c.anchors.kind.value, str(rank) if graded else "",
            _fmt(c.cms_m2, 6), _fmt(c.ua_m2, 6),
            _fmt(columns.lc_volume, 9), str(len(columns.load_bearing)),
            _fmt(columns.fc_volume, 9), str(len(columns.formwork)),
            _fmt(slopes.min_slope_S, 6), "1" if slopes.passed else "0"] + scores))
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


def stage_optimize(config: PipelineConfig, out: RunDir) -> None:
    result = optimize(config, structure_spec(config),
                      derive_seed(config.seed, "optimize"))
    report = result.report

    rows = _ranking_rows(report)
    write_output(out, "optimize/ranking.csv", "\n".join(rows) + "\n")

    marker_rows = ["candidate,x_m,y_m"]
    for c in report.ranked + report.rejected:
        for (x, y) in c.slope_report.failing_points:
            marker_rows.append(f"{c.candidate_id},{_fmt(x, 4)},{_fmt(y, 4)}")
    write_output(out, "optimize/slope_failures.csv", "\n".join(marker_rows) + "\n")

    if report.winner is not None:
        write_output(out, "optimize/winner.mesh",
                     _rendered(shell3d.write_mesh, result.winner_surface.mesh, ""))

        analysis = result.winner_analysis
        coords = np.linspace(0.0, config.gen3d.span_mm / 1000.0,
                             config.fem.lattice_grid + 1)
        footer = (f"# max_displacement_mm={_fmt(analysis.max_displacement_mm, 6)}"
                  f" limit_mm={_fmt(analysis.limit_mm, 4)}"
                  f" passed={'1' if analysis.passed else '0'}\n")
        write_output(out, "optimize/winner_displacements.csv",
                     "node,x_m,y_m,ux_mm,uy_mm,uz_mm,translation_mm\n"
                     + node_displacement_rows(analysis.result.displacements, coords)
                     + footer)

        crows = ["role,x_m,y_m,height_m,volume_m3,kept"]
        columns, kept = report.winner.columns, set(result.reduced_columns.all_columns())
        for role, col in ([("load-bearing", c) for c in columns.load_bearing]
                          + [("formwork", c) for c in columns.formwork]):
            crows.append(f"{role},{_fmt(col.position[0], 4)},"
                         f"{_fmt(col.position[1], 4)},{_fmt(col.height, 6)},"
                         f"{_fmt(col.volume, 9)},{'1' if col in kept else '0'}")
        write_output(out, "optimize/columns.csv", "\n".join(crows) + "\n")


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


def run_pipeline(config: PipelineConfig, out_dir) -> Path:
    """Execute all stages in order; returns the run directory.

    A directory whose manifest.txt records another config_hash is refused
    with ParameterError before anything is written.  A stage failure halts
    the pipeline, preserves prior outputs, and writes an incomplete
    manifest naming the stage and cause, and listing every file written
    before it failed, before re-raising as a stage error.
    """
    config = validate(config)
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
