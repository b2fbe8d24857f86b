from __future__ import annotations

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainshell import optimizer
from chainshell.config import OptimizerBlock, PipelineConfig
from chainshell.errors import ParameterError
from chainshell.filtering import measure
from chainshell.loads import StructureSpec
from chainshell.optimizer import (
    AnchorConfig,
    AnchorKind,
    Column,
    ColumnSet,
    Orientation,
    evaluate_candidate,
    formwork_reactions,
    grade,
    initial_columns,
    optimize,
    rank_designs,
    reduce_formwork,
    shelter_control_grid,
    slope_grid,
    usable_area,
    _design_solve,
    _fit_supported_surface,
)
from chainshell.pipeline import structure_spec
from chainshell.shell3d import TriangleMesh, interpolate_surface

from helpers import (PROPERTY, dome_surface, flat_surface, grid_from_z, holds_geometry,
                     meshgrid_usable_area, per_point_column_heights,
                     synthetic_candidate)

# the [optimizer] defaults, read where the study reads them
BLOCK = OptimizerBlock()
SIDE, HEADROOM = BLOCK.column_section_side_m, BLOCK.headroom_m
FOUR = AnchorConfig(AnchorKind.FOUR, span_m=2.0)


def _incline_surface(rise_per_m: float, span_mm: float = 2000.0):
    coords = np.linspace(0.0, span_mm, 5)
    z = np.outer(rise_per_m * coords, np.ones(5))  # z grows along x only
    return interpolate_surface(grid_from_z(z, span_mm), 33)


def _slopes(surface, rule: str = BLOCK.slope_rule):
    return slope_grid(surface, BLOCK.min_slope, rule)


def test_flat_surface_ponds_everywhere():
    report = _slopes(flat_surface(height_mm=1600.0))
    assert not report.passed
    assert len(report.failing_points) == 100
    assert report.min_slope_S == 0.0


def test_incline_drains_under_ponding_but_not_strict():
    surface = _incline_surface(0.03)
    ponding = _slopes(surface, "ponding")
    assert ponding.passed
    assert ponding.failing_points == ()
    strict = _slopes(surface, "strict")
    assert not strict.passed  # cross-slope directions are dead flat


def test_too_shallow_incline_fails_both_rules():
    surface = _incline_surface(0.01)
    assert not _slopes(surface, "ponding").passed
    assert not _slopes(surface, "strict").passed


def test_unknown_drainage_rule_is_rejected():
    with pytest.raises(ParameterError):
        _slopes(flat_surface(), "loose")


def test_slope_grid_matches_direct_neighbour_scan(pools42):
    surface = pools42[2].surfaces[0]
    report = _slopes(surface)
    coords = np.linspace(0.0, surface.span_mm, 10)
    z = np.asarray(surface.evaluate(coords, coords)) / 1000.0
    step = (coords[1] - coords[0]) / 1000.0
    failing = set()
    best = np.empty((10, 10))
    for i in range(10):
        for j in range(10):
            slopes = []
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < 10 and 0 <= nj < 10:
                    slopes.append(abs(z[ni, nj] - z[i, j]) / step)
            best[i, j] = max(slopes)
            if all(s < BLOCK.min_slope for s in slopes):
                failing.add((round(coords[i] / 1000.0, 12),
                             round(coords[j] / 1000.0, 12)))
    assert np.allclose(report.slopes, best, rtol=1e-12, atol=1e-15)
    got = {(round(x, 12), round(y, 12)) for x, y in report.failing_points}
    assert got == failing
    assert report.passed == (not failing)


def test_usable_area_on_flat_planes():
    assert usable_area(flat_surface(height_mm=1600.0), None, HEADROOM) == pytest.approx(4.0)
    assert usable_area(flat_surface(height_mm=1000.0), None, HEADROOM) == 0.0


def test_columns_subtract_their_footprints():
    surface = flat_surface(height_mm=1600.0)
    columns = initial_columns(surface, SIDE)
    clear = usable_area(surface, None, HEADROOM)
    with_cols = usable_area(surface, columns, HEADROOM)
    assert with_cols < clear
    # 16 columns, 0.05 m square, on a 0.02 m raster: 3x3 cells each
    assert with_cols == pytest.approx(clear - 16 * 9 * 0.02 ** 2, rel=1e-9)


def test_usable_area_matches_dome_closed_form():
    surface = dome_surface(height_m=3.0, radius_m=0.95)
    expected = math.pi * 0.95 ** 2 * (1.0 - 1.5 / 3.0)
    got = usable_area(surface, None, HEADROOM)
    assert abs(got - expected) / expected < 0.02


def _with_optimizer(**changes) -> PipelineConfig:
    config = PipelineConfig()
    return replace(config, optimizer=replace(config.optimizer, **changes))


def _random_shelter_surface(seed: int):
    """A seeded shelter candidate surface with random settings, plus its rng."""
    rng = np.random.default_rng(seed)
    study_seed = int(rng.integers(2**31))
    config = _with_optimizer(control_F=int(rng.integers(2, 7)))
    kind = list(AnchorKind)[int(rng.integers(len(AnchorKind)))]
    grid = shelter_control_grid(config, study_seed, kind, int(rng.integers(5)),
                                int(rng.integers(100)))
    return interpolate_surface(grid, int(rng.integers(8, 65))), rng


@pytest.mark.parametrize("seed", range(20))
def test_usable_area_matches_the_meshgrid_reference(seed):
    surface, rng = _random_shelter_surface(seed)
    raster = int(rng.integers(10, 121))
    cell = 2.0 / raster
    # random footprints, some centred on a raster cell centre with an edge
    # exactly one or more cells away, where the <= comparison decides
    columns = [Column(position=(float(x), float(y)), height=1.0,
                      section_area=float(side) ** 2)
               for x, y, side in rng.uniform(0.0, 2.0, (12, 3)) * [1.0, 1.0, 0.2]]
    for k in rng.integers(0, raster, 4):
        centre = (k + 0.5) * cell
        columns.append(Column(position=(centre, centre), height=1.0,
                              section_area=(2 * int(rng.integers(1, 4)) * cell) ** 2))
    column_set = ColumnSet(load_bearing=tuple(columns[:4]), formwork=tuple(columns[4:]))
    headroom = float(rng.uniform(0.0, 3.0))
    assert (usable_area(surface, column_set, headroom, raster)
            == meshgrid_usable_area(surface, column_set, headroom, raster))
    assert usable_area(surface, None, headroom, raster) == meshgrid_usable_area(
        surface, None, headroom, raster)


def _random_layout(rng, raster: int) -> ColumnSet:
    """16 columns at random plan points with random square sections, some on
    a raster cell centre with an edge exactly whole cells away."""
    cell = 2.0 / raster
    xy = rng.uniform(0.0, 2.0, (16, 2))
    xy[:4] = ((rng.integers(0, raster, (4, 2)) + 0.5) * cell)
    sides = rng.uniform(0.0, 0.2, 16)
    sides[:4] = 2 * rng.integers(1, 4, 4) * cell
    columns = tuple(Column(position=(float(x), float(y)), height=1.0,
                           section_area=float(side) ** 2)
                    for (x, y), side in zip(xy, sides))
    return ColumnSet(load_bearing=columns[:4], formwork=columns[4:])


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_usable_area_serves_each_column_layout_its_own_footprints(seed):
    surface, rng = _random_shelter_surface(seed)
    raster = int(rng.integers(10, 121))
    headroom = float(rng.uniform(0.0, 3.0))
    first, second = (_random_layout(rng, raster) for _ in range(2))
    # the same plan layout on taller columns shares the first one's mask
    taller = ColumnSet(*(tuple(replace(c, height=2.5) for c in cols)
                         for cols in (first.load_bearing, first.formwork)))
    for columns in (first, second, initial_columns(surface, SIDE), taller, second, first):
        assert (usable_area(surface, columns, headroom, raster)
                == meshgrid_usable_area(surface, columns, headroom, raster))


@pytest.mark.parametrize("seed", range(20))
def test_column_heights_match_one_spline_call_per_column(seed):
    surface, _ = _random_shelter_surface(seed)
    columns = initial_columns(surface, SIDE)
    heights = {c.position: c.height for c in columns.all_columns()}
    assert heights == per_point_column_heights(surface)


def test_grade_examples_and_bounds():
    assert grade([2.0, 4.0]) == [100.0, 1.0]
    assert grade([1.0, 2.0, 3.0]) == [100.0, 50.5, 1.0]
    assert grade([5.0, 5.0, 5.0]) == [100.0, 100.0, 100.0]
    assert grade([1.0, 2.0, 3.0], Orientation.MAXIMIZE_BEST) == [1.0, 50.5, 100.0]
    rng = np.random.default_rng(3)
    values = rng.uniform(10.0, 90.0, size=17)
    scores = grade(values)
    assert min(scores) == 1.0 and max(scores) == 100.0
    assert all(1.0 <= s <= 100.0 for s in scores)


def test_grade_is_affine_invariant():
    values = [3.1, 4.7, 0.2, 9.9, 4.7]
    shifted = [2.5 * v - 7.0 for v in values]
    for a, b in zip(grade(values), grade(shifted)):
        assert a == pytest.approx(b, rel=1e-9)
    with pytest.raises(ParameterError):
        grade([])


_candidate = synthetic_candidate


def _rank(candidates):
    return rank_designs(candidates, BLOCK.weights)


def test_single_survivor_takes_every_grade():
    report = _rank([_candidate("only", 5.0, 3.0)])
    winner = report.winner
    assert report.ranked == (winner,)
    assert winner.grades == {"CMS": 100.0, "UA": 100.0, "LC": 100.0, "FC": 100.0}
    assert winner.weighted_score == 100.0


def test_dominating_candidate_scores_exactly_100():
    pool = [_candidate("best", 4.0, 3.9, lc_vol=0.010, fc_vol=0.030),
            _candidate("mid", 4.5, 3.0, lc_vol=0.012, fc_vol=0.036),
            _candidate("worst", 5.0, 2.0, lc_vol=0.014, fc_vol=0.040)]
    report = _rank(pool)
    assert report.winner.candidate_id == "best"
    assert report.winner.weighted_score == 100.0
    scores = [c.weighted_score for c in report.ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(1.0 <= s <= 100.0 for s in scores)


def test_drainage_failures_never_join_a_cohort():
    pool = [_candidate("a", 4.0, 3.9), _candidate("b", 4.5, 3.0)]
    baseline = _rank(pool)
    # an extreme failing candidate must not shift anyone's grades
    spoiled = pool + [_candidate("swamp", 1000.0, 0.0, drainage=False)]
    report = _rank(spoiled)
    assert [c.candidate_id for c in report.rejected] == ["swamp"]
    assert all(c.candidate_id != "swamp" for c in report.ranked)
    for before, after in zip(baseline.ranked, report.ranked):
        assert before.candidate_id == after.candidate_id
        assert before.grades == after.grades
        assert before.weighted_score == after.weighted_score


def test_all_equal_cohort_keeps_input_order():
    pool = [_candidate(f"c{i}", 4.0, 3.0) for i in range(5)]
    report = _rank(pool)
    assert [c.candidate_id for c in report.ranked] == [f"c{i}" for i in range(5)]
    assert all(c.weighted_score == 100.0 for c in report.ranked)


def test_all_rejected_pool_reports_no_winner():
    pool = [_candidate("x", 4.0, 3.0, drainage=False),
            _candidate("y", 5.0, 2.0, drainage=False)]
    report = _rank(pool)
    assert report.ranked == ()
    assert report.winner is None
    assert len(report.rejected) == 2


def test_column_grading_falls_back_to_counts_on_volume_ties():
    pool = [_candidate("few", 4.0, 3.0, lc_vol=0.012, lc_count=2),
            _candidate("many", 4.0, 3.0, lc_vol=0.012, lc_count=6)]
    report = _rank(pool)
    by_id = {c.candidate_id: c for c in report.ranked}
    assert by_id["few"].grades["LC"] == 100.0
    assert by_id["many"].grades["LC"] == 1.0
    # distinct volumes take precedence regardless of counts
    pool = [_candidate("light", 4.0, 3.0, lc_vol=0.010, lc_count=9),
            _candidate("heavy", 4.0, 3.0, lc_vol=0.020, lc_count=1)]
    by_id = {c.candidate_id: c for c in _rank(pool).ranked}
    assert by_id["light"].grades["LC"] == 100.0
    assert by_id["heavy"].grades["LC"] == 1.0


def test_grades_survive_affine_rescaling_of_a_criterion():
    pool = [_candidate("a", 4.0, 3.9), _candidate("b", 4.5, 3.1),
            _candidate("c", 5.0, 2.2)]
    doubled = [_candidate(c.candidate_id, 2.0 * c.cms_m2, c.ua_m2) for c in pool]
    for x, y in zip(_rank(pool).ranked, _rank(doubled).ranked):
        assert x.candidate_id == y.candidate_id
        assert x.grades["CMS"] == pytest.approx(y.grades["CMS"], rel=1e-9)


def test_rank_designs_validates_inputs():
    with pytest.raises(ParameterError):
        _rank([])
    with pytest.raises(ParameterError):
        rank_designs([_candidate("a", 4.0, 3.0)], (0.9, 0.4, 0.1, 0.1))


def test_initial_columns_split_and_heights():
    surface = flat_surface(height_mm=1200.0)
    columns = initial_columns(surface, SIDE)
    assert len(columns.load_bearing) == 4
    assert len(columns.formwork) == 12
    corner_xy = {(0.25, 0.25), (0.25, 1.75), (1.75, 0.25), (1.75, 1.75)}
    assert {c.position for c in columns.load_bearing} == corner_xy
    for col in columns.all_columns():
        assert col.height == pytest.approx(1.2, rel=1e-6)
        assert col.section_area == pytest.approx(0.05 ** 2)
    assert columns.lc_volume == pytest.approx(4 * 0.0025 * 1.2, rel=1e-6)
    assert columns.fc_volume == pytest.approx(12 * 0.0025 * 1.2, rel=1e-6)


def test_column_heights_follow_the_surface():
    columns = initial_columns(dome_surface(), SIDE)
    by_pos = {c.position: c.height for c in columns.all_columns()}
    # dome peaks at plan centre, so inner-ring columns stand taller
    assert by_pos[(0.75, 0.75)] > by_pos[(0.25, 0.25)]
    assert all(h >= 0.0 for h in by_pos.values())


def test_anchor_points_sit_on_base_corners():
    assert AnchorConfig(AnchorKind.ONE, span_m=2.0).points == ((0.0, 0.0),)
    assert AnchorConfig(AnchorKind.TWO_SIDE, span_m=2.0).points == ((0.0, 0.0), (2.0, 0.0))
    assert AnchorConfig(AnchorKind.TWO_DIAGONAL, span_m=2.0).points == (
        (0.0, 0.0), (2.0, 2.0))
    assert len(AnchorConfig(AnchorKind.THREE, span_m=2.0).points) == 3
    assert AnchorConfig(AnchorKind.FOUR, span_m=3.0).points == (
        (0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0))


def test_shelter_grids_are_seeded_and_clamped():
    config = PipelineConfig()
    block = config.optimizer
    a = shelter_control_grid(config, 11, AnchorKind.FOUR, 4, 3)
    b = shelter_control_grid(config, 11, AnchorKind.FOUR, 4, 3)
    assert np.array_equal(a.z_values, b.z_values)
    c = shelter_control_grid(config, 11, AnchorKind.FOUR, 4, 4)
    assert not np.array_equal(a.z_values, c.z_values)

    m = block.control_F
    for (i, j) in ((0, 0), (m, 0), (m, m), (0, m)):
        assert a.z_values[i, j] == 0.0
    assert a.z_values.min() >= 0.0
    assert a.z_values.max() <= block.amplitude_cap_m * 1000.0
    assert a.z_values.max() <= a.amplitude_A
    lo = block.amplitude_min_fraction * block.amplitude_cap_m * 1000.0
    assert lo <= a.amplitude_A <= block.amplitude_cap_m * 1000.0

    single = shelter_control_grid(config, 11, AnchorKind.ONE, 0, 3)
    assert single.z_values[0, 0] == 0.0
    assert single.z_values[m, m] > 0.0  # unanchored corner stays free


def _dome_design(surface):
    return evaluate_candidate("dome", surface, FOUR, BLOCK)


def test_evaluate_candidate_collects_consistent_metrics():
    surface = dome_surface()
    design = _dome_design(surface)
    assert design.cms_m2 == pytest.approx(measure(surface).area_a)
    assert design.columns == initial_columns(surface, SIDE)
    assert (len(design.columns.load_bearing), len(design.columns.formwork)) == (4, 12)
    assert design.ua_m2 == usable_area(surface, design.columns, HEADROOM)
    assert design.ua_m2 <= 4.0
    assert design.slope_report == _slopes(surface)
    assert design.grades is None and design.weighted_score is None


def test_evaluate_candidate_reads_the_block():
    surface = dome_surface()
    changed = replace(BLOCK, column_section_side_m=0.08, min_slope=0.5,
                      slope_rule="strict", headroom_m=0.5)
    design = evaluate_candidate("dome", surface, FOUR, changed)
    assert design.columns == initial_columns(surface, 0.08)
    assert design.slope_report == slope_grid(surface, 0.5, "strict")
    assert design.ua_m2 == usable_area(surface, design.columns, 0.5)
    base = _dome_design(surface)
    assert design.columns != base.columns and design.ua_m2 != base.ua_m2
    assert design.slope_report != base.slope_report


def test_formwork_reactions_cover_every_column():
    surface = dome_surface()
    design = _dome_design(surface)
    reactions = formwork_reactions(design, surface, 10, StructureSpec())
    assert set(reactions) == set(design.columns.formwork)
    assert all(r >= 0.0 for r in reactions.values())


def test_zero_tolerance_blocks_every_removal():
    surface = dome_surface()
    design = _dome_design(surface)
    kept = reduce_formwork(design, surface, 0.0, 10, StructureSpec())
    assert kept.load_bearing == design.columns.load_bearing
    assert len(kept.formwork) == 12
    with pytest.raises(ParameterError):
        reduce_formwork(design, surface, -0.1, 10, StructureSpec())


def test_reduction_respects_its_own_tolerances():
    surface = dome_surface()
    design = _dome_design(surface)
    span_m = surface.span_mm / 1000.0
    p_ref, a_ref = _fit_supported_surface(
        design.anchors, list(design.columns.all_columns()), span_m)
    dP, da = 0.02 * p_ref, 0.02 * a_ref
    kept = reduce_formwork(design, surface, 0.02, 10, StructureSpec())
    assert kept.load_bearing == design.columns.load_bearing
    original = {id(c) for c in design.columns.formwork}
    assert all(id(c) in original for c in kept.formwork)
    p, a = _fit_supported_surface(
        design.anchors,
        list(kept.load_bearing) + list(kept.formwork), span_m)
    assert abs(p - p_ref) <= dP
    assert abs(a - a_ref) <= da


def test_design_solve_follows_the_structure_moduli():
    # a linear frame with every stiffness halved deflects exactly twice as far
    surface = dome_surface()
    design = _dome_design(surface)
    base = StructureSpec()
    soft = replace(base, elastic_modulus=base.elastic_modulus / 2,
                   shear_modulus=base.shear_modulus / 2)
    stiff = _design_solve(design, surface, design.columns, 10, base).max_displacement_mm
    halved = _design_solve(design, surface, design.columns, 10, soft).max_displacement_mm
    assert halved / stiff == pytest.approx(2.0, rel=1e-9)


def test_reaction_lookup_clamps_like_the_supports():
    # a column past the far edge sits on the clamped edge node, not on the
    # first node of the next lattice row
    surface = dome_surface()
    design = _dome_design(surface)
    moved = design.columns.formwork[-1]
    assert moved.position == (1.75, 1.25)

    def with_last_column_at(position):
        col = replace(moved, position=position)
        columns = ColumnSet(design.columns.load_bearing,
                            design.columns.formwork[:-1] + (col,))
        return col, formwork_reactions(replace(design, columns=columns), surface, 10,
                                       StructureSpec())

    outside, beyond = with_last_column_at((1.75, 2.2))
    edge, on_edge = with_last_column_at((1.75, 2.0))
    assert beyond[outside] == on_edge[edge]
    assert beyond[outside] > 0.0


def test_one_reference_fit_per_study(monkeypatch):
    sizes = []
    original = optimizer._fit_supported_surface

    def counting(anchors, columns, span_m, *args):
        sizes.append(len(columns))
        return original(anchors, columns, span_m, *args)

    monkeypatch.setattr(optimizer, "_fit_supported_surface", counting)
    config = _with_optimizer(iterations_per_anchor=2)
    optimize(config, structure_spec(config), 11)
    assert sizes.count(16) == 1
    assert len(sizes) > 1  # the trial fits still ran


def test_candidate_evaluation_needs_no_boundary(monkeypatch):
    surface = dome_surface()
    area = surface.mesh.area()

    def forbidden(self):
        raise AssertionError("evaluate_candidate walked the mesh boundary")

    monkeypatch.setattr(TriangleMesh, "boundary_edges", forbidden)
    design = _dome_design(surface)
    assert design.cms_m2 == area


def test_optimize_is_deterministic_across_reruns():
    config = _with_optimizer(iterations_per_anchor=4)
    first = optimize(config, structure_spec(config), 11)
    second = optimize(config, structure_spec(config), 11)
    assert ([c.candidate_id for c in first.report.ranked]
            == [c.candidate_id for c in second.report.ranked])
    assert ([c.weighted_score for c in first.report.ranked]
            == [c.weighted_score for c in second.report.ranked])
    assert first.report.winner.candidate_id == second.report.winner.candidate_id
    assert ({c.position for c in first.reduced_columns.formwork}
            == {c.position for c in second.reduced_columns.formwork})


def test_full_study_outcome(optimize_result):
    result = optimize_result
    assert len(result.report.ranked) + len(result.report.rejected) == 100
    winner = result.report.winner
    assert winner is result.report.ranked[0]
    assert winner.candidate_id == "two-side-13"
    assert len(result.reduced_columns.formwork) == 4
    assert winner.slope_report.passed
    scores = [c.weighted_score for c in result.report.ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(1.0 <= s <= 100.0 for s in scores)
    assert all(not c.slope_report.passed for c in result.report.rejected)
    assert result.reduced_columns.load_bearing == winner.columns.load_bearing
    assert len(result.reduced_columns.formwork) <= 12
    assert result.winner_analysis.limit_mm == 8.0
    assert result.winner_analysis.passed


def test_a_study_with_every_candidate_rejected_has_no_winner():
    config = _with_optimizer(iterations_per_anchor=1, min_slope=100.0)
    result = optimize(config, structure_spec(config), 11)
    assert result.report.ranked == () and len(result.report.rejected) == 5
    assert result.report.winner is None
    assert (result.winner_surface, result.reduced_columns, result.winner_analysis) == (
        None, None, None)


def test_study_keeps_only_the_winner_surface(monkeypatch):
    built = []
    original = optimizer.interpolate_surface

    def tracking(control, resolution):
        surface = original(control, resolution)
        built.append(weakref.ref(surface))
        return surface

    monkeypatch.setattr(optimizer, "interpolate_surface", tracking)
    config = _with_optimizer(iterations_per_anchor=2)
    result = optimize(config, structure_spec(config), 11)
    gc.collect()
    # ten candidates scored, then the winner rebuilt once
    assert len(built) == 11
    alive = [ref() for ref in built if ref() is not None]
    assert len(alive) == 1 and alive[0] is result.winner_surface
    assert result.winner_surface.control is result.report.winner.control
    # no candidate, the winner included, holds a surface or a mesh
    assert not holds_geometry(result.report)


def test_winner_rebuild_is_bit_exact(optimize_result):
    winner, surface = optimize_result.report.winner, optimize_result.winner_surface
    assert surface.sample_resolution == winner.resolution
    assert surface.mesh.area() == winner.cms_m2
    again = interpolate_surface(winner.control, winner.resolution)
    assert again.mesh.coords_m.tobytes() == surface.mesh.coords_m.tobytes()
    assert again.mesh.heights_m.tobytes() == surface.mesh.heights_m.tobytes()
