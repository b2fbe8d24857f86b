"""Release checklist: one check per shipped guarantee, one printed line each.

Every test prints `[Axx] PASS ...` or `[Axx] FAIL ...` before asserting, so
a plain pytest run doubles as the compliance report.

A10 checks sheet weight against an independent rod-volume oracle built from
the raster band of ``helpers.raster_solid_fraction``, and that model and
oracle both order the catalog rings circular < triangular < rectangular.
The reference ordering rectangular < circular < triangular is not asserted:
no source states what quantity it describes, and at one ring count, rod
diameter and density it would need the 44 mm square loop to weigh less than
the 11 mm circle.  It waits for the paper's sample-weight table, whose sheets
may differ in plan size, ring count or infill.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from chainshell.config import OptimizerBlock, PipelineConfig
from chainshell.fem import analyze_shell, frame_from_surface, shell_node_loads, solve
from chainshell.filtering import filter_surfaces, measure
from chainshell.loads import (
    StructureSpec,
    combine,
    deflection_limit,
    live_load,
    snow_load,
    wind_load,
)
from chainshell.optimizer import rank_designs
from chainshell.pipeline import RunDir, stage_optimize
from chainshell.profile2d import default_envelope, sweep_2d
from chainshell.shell3d import depth_map, group_parameters, interpolate_surface
from chainshell.units import (
    SheetSpec,
    Shape,
    UnitCell,
    moment_of_inertia,
    sheet_weight,
    solid_to_gap_ratio,
    standard_cell,
)

from helpers import (
    cantilever_model,
    dome_surface,
    flat_surface,
    grid_from_z,
    pool_surfaces,
    raster_solid_fraction,
    simply_supported_model,
    synthetic_candidate,
    uniform_beam_loads,
    BEAM_E,
    BEAM_SECTION,
)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


def _force_balance(model, nodal_loads, result) -> float:
    """Relative residual of total applied force vs support reactions."""
    if isinstance(nodal_loads, dict):
        applied = np.sum([np.asarray(v, dtype=float)[:3]
                          for v in nodal_loads.values()], axis=0)
    else:
        applied = np.asarray(nodal_loads)[:, :3].sum(axis=0)
    reacted = np.sum([r for r in result.reactions.values()], axis=0) * 1e3
    return float(np.linalg.norm(applied + reacted) / np.linalg.norm(applied))


def test_a01_load_table_values():
    spec = StructureSpec(plan_area_a=4.0)
    live_load(spec)  # warm up before timing
    t0 = time.perf_counter()
    ll = live_load(spec)
    sl = snow_load(spec, mu=0.8)
    wl = wind_load(spec, c_p=0.75)
    elapsed = time.perf_counter() - t0
    ok = (abs(ll - 1.60) <= 1e-9 and abs(sl - 2.88) <= 1e-9
          and abs(wl - 3.21) <= 1e-9 and elapsed < 1e-3)
    _report("A01", ok,
            f"a=4 m2: LL={ll:.9f} SL={sl:.9f} WL={wl:.9f} kN "
            f"({elapsed * 1e6:.1f} us)")
    assert ok


def test_a02_deflection_limit():
    limit = deflection_limit(2.0)
    ok = limit == 8.0
    _report("A02", ok, f"span 2 m -> limit {limit} mm (span/250)")
    assert ok


def test_a03_moment_of_inertia_reference_values():
    cases = [
        (UnitCell(Shape.TRIANGULAR, 7.5, 1.0), 20.30),
        (UnitCell(Shape.CIRCULAR, 11.0, 1.0), 2.683),
        (UnitCell(Shape.RECTANGULAR, 11.0, 1.0), 2440.17),
    ]
    errs = {cell.shape.value: abs(moment_of_inertia(cell) - want) / want
            for cell, want in cases}
    ok = all(err <= 0.005 for err in errs.values())
    detail = " ".join(f"{shape}={err * 100:.3f}%" for shape, err in errs.items())
    _report("A03", ok, f"inertia vs reference: {detail} (tol 0.5%)")
    assert ok


def test_a04_solid_to_gap_ratio_with_raster_oracle():
    rows = []
    ok = True
    for shape in Shape:
        cell = standard_cell(shape)
        model = solid_to_gap_ratio(cell)
        raster = raster_solid_fraction(cell, resolution=2048)
        ok &= abs(model - 0.08) <= 0.005 and abs(raster - 0.08) <= 0.005
        rows.append(f"{shape.value}:model={model:.5f},raster={raster:.5f}")
    _report("A04", ok, "ratio at calibrated pitch " + " ".join(rows)
            + " (0.08 +/- 0.005)")
    assert ok


def test_a05_beam_theory_and_solver_hygiene(pools42):
    residuals = []

    cant = cantilever_model()
    cant_loads = {6: (0.0, 0.0, -800.0)}
    cant_res = solve(cant, cant_loads)
    residuals.append(_force_balance(cant, cant_loads, cant_res))
    exact_tip = -800.0 * 1.5 ** 3 / (3.0 * BEAM_E * BEAM_SECTION.inertia_y)
    cant_err = abs(cant_res.displacements[6, 2] - exact_tip) / abs(exact_tip)

    ss = simply_supported_model(16, 2.0)
    ss_loads = uniform_beam_loads(16, 2.0, 500.0)
    ss_res = solve(ss, ss_loads)
    residuals.append(_force_balance(ss, ss_loads, ss_res))
    exact_mid = -5.0 * 500.0 * 2.0 ** 4 / (384.0 * BEAM_E * BEAM_SECTION.inertia_y)
    mid_err = abs(ss_res.displacements[8, 2] - exact_mid) / abs(exact_mid)

    surface = pools42[1].surfaces[0]
    case = combine(StructureSpec(), measure(surface).area_a)
    shell_model = frame_from_surface(surface, grid=10)
    shell_loads = shell_node_loads(surface, 10, case.total_TL)
    t0 = time.perf_counter()
    shell_res = solve(shell_model, shell_loads)
    shell_time = time.perf_counter() - t0
    residuals.append(_force_balance(shell_model, shell_loads, shell_res))

    worst = max(residuals)
    ok = (cant_err <= 0.005 and mid_err <= 0.01 and worst < 1e-6
          and shell_time < 1.0)
    _report("A05", ok,
            f"cantilever err {cant_err * 100:.4f}% (tol 0.5%), midspan err "
            f"{mid_err * 100:.4f}% (tol 1%), equilibrium residual {worst:.2e}, "
            f"shell solve {shell_time * 1e3:.0f} ms")
    assert ok


def test_a06_group_compliance_and_trend():
    t0 = time.perf_counter()
    structure = StructureSpec()
    means = []
    overall_max = 0.0
    for group in range(1, 5):
        amplitude, frequency = group_parameters(group)
        surfaces = pool_surfaces(amplitude, frequency, n=20, seed=42)
        outcome = filter_surfaces([measure(s) for s in surfaces], k=4)
        peaks = []
        for idx in outcome.kept_indices:
            case = combine(structure, outcome.metrics[idx].area_a)
            analysis = analyze_shell(surfaces[idx], case)
            peaks.append(analysis.max_displacement_mm)
        means.append(sum(peaks) / len(peaks))
        overall_max = max(overall_max, max(peaks))
    elapsed = time.perf_counter() - t0
    decreasing = all(means[i] > means[i + 1] for i in range(3))
    ok = overall_max <= 8.0 and decreasing and elapsed < 30.0
    _report("A06", ok,
            f"16 models max {overall_max:.4f} mm <= 8, group means "
            + " > ".join(f"{m:.4f}" for m in means)
            + f" ({elapsed:.1f} s < 30 s)")
    assert ok


def test_a07_group4_filter_distinctness(pools42):
    outcome = filter_surfaces([measure(s) for s in pools42[4].surfaces], k=4)
    kept = outcome.kept_indices
    distinct = True
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            m1 = outcome.metrics[kept[a]]
            m2 = outcome.metrics[kept[b]]
            if not (abs(m1.perimeter_P - m2.perimeter_P) > outcome.dP
                    or abs(m1.area_a - m2.area_a) > outcome.da):
                distinct = False
    ok = len(kept) == 4 and distinct
    _report("A07", ok,
            f"kept {list(kept)} of 20 (dP={outcome.dP:.6f} m, "
            f"da={outcome.da:.6f} m2), all pairs distinct: {distinct}")
    assert ok


def test_a08_ranking_csv_determinism(tmp_path):
    runs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        config = replace(PipelineConfig(), threads=threads)
        stage_optimize(config, RunDir.create(tmp_path / name))
        runs[name] = (tmp_path / name / "optimize" / "ranking.csv").read_bytes()
    ok = runs["a"] == runs["b"] == runs["c"]
    _report("A08", ok,
            f"ranking.csv byte-identical across reruns and thread counts "
            f"({len(runs['a'])} bytes)")
    assert ok


def test_a09_ranking_correctness(optimize_result):
    pool = [synthetic_candidate("top", 4.0, 3.9, lc_vol=0.010, fc_vol=0.030),
            synthetic_candidate("mid", 4.5, 3.0),
            synthetic_candidate("low", 5.0, 2.2, lc_vol=0.014, fc_vol=0.040),
            synthetic_candidate("swamp", 0.1, 4.0, drainage=False)]
    weights = OptimizerBlock().weights
    report = rank_designs(pool, weights)
    gate_ok = ([c.candidate_id for c in report.rejected] == ["swamp"]
               and all(c.slope_report.passed for c in report.ranked))

    rescaled = [synthetic_candidate(c.candidate_id, 2.5 * c.cms_m2 + 3.0, c.ua_m2,
                                    lc_vol=c.columns.lc_volume,
                                    fc_vol=c.columns.fc_volume,
                                    drainage=c.slope_report.passed)
                for c in pool]
    affine_ok = True
    for before, after in zip(rank_designs(pool, weights).ranked,
                             rank_designs(rescaled, weights).ranked):
        if before.candidate_id != after.candidate_id:
            affine_ok = False
            continue
        for key in ("CMS", "UA", "LC", "FC"):
            if abs(before.grades[key] - after.grades[key]) > 1e-9:
                affine_ok = False

    dominant_ok = report.winner.candidate_id == "top" \
        and report.winner.weighted_score == 100.0

    gated_live = all(c.slope_report.passed for c in optimize_result.report.ranked)
    disp = optimize_result.winner_analysis.max_displacement_mm
    limit = optimize_result.winner_analysis.limit_mm
    bound_ok = disp <= limit

    ok = gate_ok and affine_ok and dominant_ok and gated_live and bound_ok
    _report("A09", ok,
            f"drainage gate: {gate_ok and gated_live}, grade affine-invariance: "
            f"{affine_ok}, dominating score 100: {dominant_ok}, winner "
            f"{disp:.3f} mm <= {limit} mm: {bound_ok}")
    assert ok


def test_a10_sheet_weight_shape_ordering():
    # Oracle: the raster band of one ring covers about centreline x d of
    # plan area; times pi d / 4 it is the volume of the round rod.
    rows = []
    grams = {}
    ok = True
    for shape in Shape:
        cell = standard_cell(shape)
        d = cell.rod_diameter_d
        band_mm2 = raster_solid_fraction(cell, resolution=2048) * cell.cell_pitch ** 2
        spec = SheetSpec(cell, 10, 10)
        oracle = (spec.grid_rows * spec.grid_cols * band_mm2 * math.pi * d / 4.0
                  * spec.material_density * 1e-3)
        model = sheet_weight(spec)
        err = abs(model - oracle) / oracle
        ok &= err <= 0.01
        grams[shape] = (model, oracle)
        rows.append(f"{shape.value}:model={model:.3f},oracle={oracle:.3f}"
                    f"({err * 100:.2f}%)")
    expected = [Shape.CIRCULAR, Shape.TRIANGULAR, Shape.RECTANGULAR]
    order_ok = all(sorted(Shape, key=lambda s: grams[s][k]) == expected
                   for k in (0, 1))
    ok &= order_ok
    _report("A10", ok,
            "10x10 sheet weight (g) vs rod-volume oracle " + " ".join(rows)
            + f" (tol 1%); circ < tri < rect for model and oracle: {order_ok}")
    assert ok


def test_a11_sweep_maximum():
    t0 = time.perf_counter()
    report = sweep_2d(Shape.RECTANGULAR, default_envelope(Shape.RECTANGULAR))
    elapsed = time.perf_counter() - t0
    best = report.max_feasible_cell
    ok = best == (35.0, 9) and elapsed < 1.0
    _report("A11", ok,
            f"rectangular maximum A={best[0]} mm f={best[1]} "
            f"({elapsed * 1e3:.1f} ms < 1 s)")
    assert ok


def test_a12_depth_map_rendering():
    flat = depth_map(flat_surface(), 64)
    flat_ok = flat.dtype == np.uint8 and np.all(flat == 255)

    dome = depth_map(dome_surface(), 128)
    peak_ok = int(dome.min()) == 0 and int(dome.max()) == 255

    rng = np.random.default_rng(5)
    z = rng.uniform(0.0, 30.0, size=(5, 5))
    one = depth_map(interpolate_surface(grid_from_z(z), 33), 64)
    two = depth_map(interpolate_surface(grid_from_z(2.0 * z), 33), 64)
    scale_ok = np.array_equal(one, two)

    ok = flat_ok and peak_ok and scale_ok
    _report("A12", ok,
            f"flat uniform white: {flat_ok}, peak renders 0: {peak_ok}, "
            f"height-scale invariance: {scale_ok}")
    assert ok
