from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chainshell import optimizer
from chainshell.config import OptimizerBlock, PipelineConfig
from chainshell.errors import ParameterError
from chainshell.fem import default_supports
from chainshell.filtering import measure
from chainshell.optimizer import (
    COLUMN_POSITIONS_M,
    LOAD_BEARING,
    KINDS,
    AnchorKind,
    Study,
    drainage_points_m,
    evaluate_candidate,
    formwork_reactions,
    grade,
    initial_columns,
    optimize,
    rank_designs,
    reduce_formwork,
    slope_grid,
    usable_area,
    _anchor_points,
    _design_solve,
    _fit_supported_surface,
    _support_nodes,
)
from chainshell.pipeline import structure_spec
from chainshell.shell3d import TriangleMesh, control_spline, interpolate_surface, lattice_area

from helpers import (CONFIG, PROPERTY, SPEC, dict_default_supports, dict_restraint,
                     dict_support_nodes, dome_control, dome_surface, flat_surface,
                     holds_geometry, lane_stacks, meshgrid_usable_area,
                     per_point_column_heights, record_rank_designs, same_bits,
                     shelter_control_grid, synthetic_candidate, synthetic_study)

# the [optimizer] defaults, read where the study reads them
BLOCK = OptimizerBlock()
SIDE, HEADROOM = BLOCK.column_section_side_m, BLOCK.headroom_m
FOUR = AnchorKind.FOUR
FOUR_CODE = KINDS.index(FOUR)
GRID = CONFIG.fem.lattice_grid
EVERY_COLUMN = np.ones(16, dtype=bool)
# a 0.05 m square column covers 3x3 cells of the default 0.02 m raster
FOOTPRINT_M2 = 9 * 0.02 ** 2


def _incline_surface(rise_per_m: float, span_mm: float = CONFIG.gen3d.span_mm):
    coords = np.linspace(0.0, span_mm, 5)
    z = np.outer(rise_per_m * coords, np.ones(5))  # z grows along x only
    return interpolate_surface(z, span_mm, 33)


def _slopes(surface, rule: str = BLOCK.slope_rule):
    return slope_grid(surface.spline, surface.span_mm, BLOCK.min_slope, rule)


def _points(surface, fails):
    """The plan coordinates (m) of the drainage-grid points a mask marks."""
    return tuple(map(tuple, drainage_points_m(surface.span_mm)[fails].tolist()))


def _usable(surface):
    return usable_area(surface.spline, surface.span_mm, SIDE, HEADROOM)


def test_flat_surface_ponds_everywhere():
    min_slope_S, fails = _slopes(flat_surface(height_mm=1600.0))
    assert fails.shape == (100,) and fails.sum() == 100
    assert min_slope_S == 0.0


def test_incline_drains_under_ponding_but_not_strict():
    surface = _incline_surface(0.03)
    assert not _slopes(surface, "ponding")[1].any()
    assert _slopes(surface, "strict")[1].any()  # cross-slope directions are dead flat


def test_too_shallow_incline_fails_both_rules():
    surface = _incline_surface(0.01)
    assert _slopes(surface, "ponding")[1].any()
    assert _slopes(surface, "strict")[1].any()


def test_unknown_drainage_rule_is_rejected():
    with pytest.raises(ParameterError):
        _slopes(flat_surface(), "loose")


def test_slope_grid_matches_direct_neighbour_scan(pools42):
    surface = pools42[2].surfaces[0]
    min_slope_S, fails = _slopes(surface)
    failing_points = _points(surface, fails)
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
    assert np.isclose(min_slope_S, best.min(), rtol=1e-12, atol=1e-15)
    got = {(round(x, 12), round(y, 12)) for x, y in failing_points}
    assert got == failing
    assert len(failing_points) == len(failing)


def test_usable_area_on_flat_planes():
    # clear headroom everywhere but the column footprints, then nowhere
    assert _usable(flat_surface(height_mm=1600.0)) == pytest.approx(
        4.0 - 16 * FOOTPRINT_M2, rel=1e-9)
    assert _usable(flat_surface(height_mm=1000.0)) == 0.0


def test_columns_subtract_their_footprints():
    surface = flat_surface(height_mm=1600.0)
    narrow = usable_area(surface.spline, surface.span_mm, SIDE, HEADROOM)
    # a 0.09 m section covers 5x5 cells of the 0.02 m raster
    wide = usable_area(surface.spline, surface.span_mm, 0.09, HEADROOM)
    assert wide < narrow
    assert wide == pytest.approx(4.0 - 16 * 25 * 0.02 ** 2, rel=1e-9)


def test_usable_area_matches_dome_closed_form():
    surface = dome_surface(height_m=3.0, radius_m=0.95)
    expected = math.pi * 0.95 ** 2 * (1.0 - 1.5 / 3.0)
    # the four inner columns stand inside the clear disc, the others outside
    got = usable_area(surface.spline, surface.span_mm, SIDE, HEADROOM) + 4 * FOOTPRINT_M2
    assert abs(got - expected) / expected < 0.02


def _with_optimizer(**changes) -> PipelineConfig:
    config = PipelineConfig()
    return replace(config, optimizer=replace(config.optimizer, **changes))


def _random_shelter_surface(seed: int, span_mm: float = CONFIG.gen3d.span_mm):
    """A seeded shelter candidate surface with random settings, plus its rng."""
    rng = np.random.default_rng(seed)
    study_seed = int(rng.integers(2**31))
    config = _with_optimizer(control_F=int(rng.integers(2, 7)))
    config = replace(config, gen3d=replace(config.gen3d, span_mm=span_mm))
    kind = list(AnchorKind)[int(rng.integers(len(AnchorKind)))]
    grid = shelter_control_grid(config, study_seed, kind, int(rng.integers(5)),
                                int(rng.integers(100)))
    return interpolate_surface(grid, span_mm, int(rng.integers(8, 65))), rng


def _edge_case_footprint(rng):
    """A raster on which the column grid lines pass through cell centres, and a
    section whose footprint edges lie whole cells away from them, where the
    <= comparison decides."""
    raster = 8 * int(rng.integers(1, 16)) + 4
    return raster, 2 * int(rng.integers(1, 4)) * (2.0 / raster)


@pytest.mark.parametrize("seed", range(20))
def test_usable_area_matches_the_meshgrid_reference(seed):
    surface, rng = _random_shelter_surface(seed)
    if seed % 2:
        raster, side = int(rng.integers(10, 121)), float(rng.uniform(0.0, 0.4))
    else:
        raster, side = _edge_case_footprint(rng)
    headroom = float(rng.uniform(0.0, 3.0))
    assert (usable_area(surface.spline, surface.span_mm, side, headroom, raster)
            == meshgrid_usable_area(surface, side, headroom, raster))


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_usable_area_serves_each_column_layout_its_own_footprints(seed):
    # the footprint mask is cached per (span, raster, section side): keys
    # differing in one entry, visited in turn and revisited past the cache's
    # size, each get their own mask
    rng = np.random.default_rng(seed)
    surfaces = [_random_shelter_surface(int(rng.integers(2**31)), span_mm)[0]
                for span_mm in (CONFIG.gen3d.span_mm, float(rng.uniform(1500.0, 3000.0)))]
    edge_raster, edge_side = _edge_case_footprint(rng)
    rasters = (edge_raster, int(rng.integers(10, 121)))
    sides = (edge_side, float(rng.uniform(0.0, 0.4)))
    headroom = float(rng.uniform(0.0, 3.0))
    for s, r, d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                    (0, 1, 1), (0, 0, 0), (1, 0, 0)):
        surface = surfaces[s]
        assert (usable_area(surface.spline, surface.span_mm, sides[d], headroom, rasters[r])
                == meshgrid_usable_area(surface, sides[d], headroom, rasters[r]))


@pytest.mark.parametrize("seed", range(20))
def test_column_heights_match_one_spline_call_per_column(seed):
    surface, _ = _random_shelter_surface(seed)
    assert initial_columns(surface.spline).tolist() == per_point_column_heights(surface)


@PROPERTY
@given(lane_stacks(scale_mm=3000.0), st.sampled_from([16, 64]),
       st.floats(0.0, 0.3), st.floats(0.0, 3.0))
def test_study_measures_each_lane_of_a_stack_as_its_own_surface_bitwise(
        case, resolution, side, headroom):
    # the lattice area, the columns, UA and drainage under both rules, on
    # 1 to 7 lanes (chunks of two leave an odd lane over), each against its
    # lane's own surface on the single-grid path
    z, span, _ = case
    span *= 1000.0  # plans of 1 m, 3.7 m and 2 km under heights of metres
    stack = control_spline(z, span)
    lattice = np.linspace(0.0, span, resolution)
    areas = lattice_area(lattice / 1000.0, stack(lattice, lattice) / 1000.0)
    columns, usable = initial_columns(stack), usable_area(stack, span, side, headroom)
    drainage = [slope_grid(stack, span, 0.02, rule) for rule in ("ponding", "strict")]
    codes = np.full(len(z), FOUR_CODE)
    config = replace(CONFIG, optimizer=replace(BLOCK, column_section_side_m=side + 0.01,
                                               headroom_m=headroom),
                     gen3d=replace(CONFIG.gen3d, span_mm=span, resolution=resolution))
    study = evaluate_candidate([str(i) for i in range(len(z))], z, codes, config)
    for i, grid in enumerate(z):
        surface = interpolate_surface(grid, span, resolution)
        assert same_bits(areas[i], surface.mesh.area())
        assert same_bits(columns[i], initial_columns(surface.spline))
        assert same_bits(usable[i], usable_area(surface.spline, span, side, headroom))
        for rule, (lane_least, lane_fails) in zip(("ponding", "strict"), drainage):
            least, failing = slope_grid(surface.spline, span, 0.02, rule)
            assert same_bits(lane_least[i], least) and np.array_equal(lane_fails[i], failing)
        alone = _design(str(i), z[i:i + 1], surface, config.optimizer)
        for field in ("heights_m", "volumes_m3", "cms_m2", "ua_m2", "min_slope"):
            assert same_bits(getattr(study, field)[i], getattr(alone, field)[0])
        assert np.array_equal(study.fails[i], alone.fails[0])


def test_grade_examples_and_bounds():
    assert grade([2.0, 4.0]).tolist() == [100.0, 1.0]
    assert grade([1.0, 2.0, 3.0]).tolist() == [100.0, 50.5, 1.0]
    assert grade([5.0, 5.0, 5.0]).tolist() == [100.0, 100.0, 100.0]
    assert grade([-1.0, -2.0, -3.0]).tolist() == [1.0, 50.5, 100.0]
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


def _maximize_grades(values):
    """Reference: the mirrored rescale, highest 100 and lowest 1."""
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return [100.0] * len(arr)
    t = (arr - lo) / (hi - lo)
    return list(1.0 + 99.0 * t)


# a few exact values, signed zeros among them, make ties and one-value cohorts common
_COHORT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                           st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY
@given(st.lists(_COHORT_VALUES, min_size=1, max_size=12))
def test_grading_negated_values_maximizes_bit_for_bit(xs):
    ours = np.array(grade([-x for x in xs]), dtype=float)
    assert ours.tobytes() == np.array(_maximize_grades(xs), dtype=float).tobytes()


_candidate = synthetic_candidate


def _rank(candidates):
    """rank_designs on a synthetic study of the candidate rows: the ranked
    ids best first, the rejected ids, and each ranked id's grades by
    criterion and weighted score."""
    study = synthetic_study(candidates)
    order, grades, scores = rank_designs(study, BLOCK.weights)
    ranked = order[:int(study.drains.sum())]
    ids = study.ids.tolist()
    graded = {ids[i]: (dict(zip(("CMS", "UA", "LC", "FC"), grades[i].tolist())),
                       float(scores[i])) for i in ranked.tolist()}
    return ([ids[i] for i in ranked.tolist()],
            [ids[i] for i in order[len(ranked):].tolist()], graded)


def test_single_survivor_takes_every_grade():
    ranked, rejected, graded = _rank([_candidate("only", 5.0, 3.0)])
    assert ranked == ["only"] and rejected == []
    grades, score = graded["only"]
    assert grades == {"CMS": 100.0, "UA": 100.0, "LC": 100.0, "FC": 100.0}
    assert score == 100.0


def test_dominating_candidate_scores_exactly_100():
    pool = [_candidate("best", 4.0, 3.9, lc_m3=0.010, fc_m3=0.030),
            _candidate("mid", 4.5, 3.0, lc_m3=0.012, fc_m3=0.036),
            _candidate("worst", 5.0, 2.0, lc_m3=0.014, fc_m3=0.040)]
    ranked, _, graded = _rank(pool)
    assert ranked[0] == "best"
    assert graded["best"][1] == 100.0
    scores = [graded[cid][1] for cid in ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(1.0 <= s <= 100.0 for s in scores)


def test_drainage_failures_never_join_a_cohort():
    pool = [_candidate("a", 4.0, 3.9), _candidate("b", 4.5, 3.0)]
    baseline, _, base_graded = _rank(pool)
    # an extreme failing candidate must not shift anyone's grades
    spoiled = pool + [_candidate("swamp", 1000.0, 0.0, drainage=False)]
    ranked, rejected, graded = _rank(spoiled)
    assert rejected == ["swamp"]
    assert "swamp" not in ranked
    assert baseline == ranked
    for cid in ranked:
        assert base_graded[cid] == graded[cid]


def test_all_equal_cohort_keeps_input_order():
    pool = [_candidate(f"c{i}", 4.0, 3.0) for i in range(5)]
    ranked, _, graded = _rank(pool)
    assert ranked == [f"c{i}" for i in range(5)]
    assert all(score == 100.0 for _, score in graded.values())


def test_all_rejected_pool_reports_no_winner():
    pool = [_candidate("x", 4.0, 3.0, drainage=False),
            _candidate("y", 5.0, 2.0, drainage=False)]
    ranked, rejected, _ = _rank(pool)
    assert ranked == []
    assert rejected == ["x", "y"]


def test_grades_survive_affine_rescaling_of_a_criterion():
    pool = [_candidate("a", 4.0, 3.9), _candidate("b", 4.5, 3.1),
            _candidate("c", 5.0, 2.2)]
    doubled = [_candidate(cid, 2.0 * cms, ua) for cid, cms, ua, *_ in pool]
    (x_ids, _, x_graded), (y_ids, _, y_graded) = _rank(pool), _rank(doubled)
    assert x_ids == y_ids
    for cid in x_ids:
        assert x_graded[cid][0]["CMS"] == pytest.approx(y_graded[cid][0]["CMS"], rel=1e-9)


def test_rank_designs_validates_inputs():
    with pytest.raises(ParameterError):
        rank_designs(synthetic_study([_candidate("a", 4.0, 3.0)])._replace(
            ids=np.array([], dtype=str)), BLOCK.weights)
    with pytest.raises(ParameterError):
        rank_designs(synthetic_study([_candidate("a", 4.0, 3.0)]), (0.9, 0.4, 0.1, 0.1))


# exact values, signed zeros among them, make ties in score, CMS and UA
# common; the finite floats stay where a grade's range cannot overflow
_RANK_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 4.0]),
                         st.floats(-1e6, 1e6, allow_nan=False))
_RANK_ROWS = st.lists(st.tuples(_RANK_VALUES, _RANK_VALUES, _RANK_VALUES, _RANK_VALUES,
                                st.booleans()), min_size=1, max_size=12)


@PROPERTY
@given(_RANK_ROWS, st.sampled_from([BLOCK.weights, (0.25, 0.25, 0.25, 0.25),
                                    (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]))
@example([(4.0, 3.0, 0.012, 0.036, True)], BLOCK.weights)           # one survivor
@example([(4.0, 3.0, 0.012, 0.036, False)] * 3, BLOCK.weights)      # all rejected
@example([(0.0, 0.0, 1.0, 1.0, True), (-0.0, -0.0, 1.0, 1.0, True),
          (0.0, -0.0, 2.5, 1.0, True), (-0.0, 0.0, 2.5, 1.0, True)],
         (0.5, 0.5, 0.0, 0.0))                                      # ties at +-0.0
def test_rank_designs_matches_the_record_ranking_bitwise(rows, weights):
    study = synthetic_study([(f"c{i}", cms, ua, lc, fc, drains)
                             for i, (cms, ua, lc, fc, drains) in enumerate(rows)])
    order, grades, scores = rank_designs(study, weights)
    expected_order, expected_grades, expected_scores = record_rank_designs(study, weights)
    assert order.tolist() == expected_order
    assert grades.shape == (len(rows), 4) and scores.shape == (len(rows),)
    for row in range(len(rows)):
        if row in expected_scores:
            assert same_bits(grades[row], np.array(expected_grades[row]))
            assert same_bits(scores[row], expected_scores[row])
        else:  # a reject never enters a grading cohort
            assert np.isnan(grades[row]).all() and np.isnan(scores[row])


def test_lc_and_fc_add_the_column_volumes_left_to_right():
    # twelve formwork volumes whose pairwise np.sum rounds differently from
    # Python's left-to-right sum of the row's list; numpy sums the rows of a
    # one-row table pairwise (and of taller ones, today, column by column)
    formwork = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 7.0, 1.0, 1.0, 2.0, 1.0, 1.0]
    assert float(np.sum(np.array(formwork))) != sum(formwork)
    for rows in (1, 2):
        volumes = np.zeros((rows, 16))
        volumes[:, ~LOAD_BEARING] = formwork
        volumes[-1, LOAD_BEARING] = -0.0
        study = synthetic_study([_candidate(str(i), 4.0, 3.0) for i in range(rows)])._replace(
            volumes_m3=volumes)
        for row in range(rows):
            assert same_bits(study.fc_m3[row], sum(volumes[row, ~LOAD_BEARING].tolist()))
            assert same_bits(study.lc_m3[row], sum(volumes[row, LOAD_BEARING].tolist()))
        # Python's sum starts from 0: four -0.0 volumes sum to +0.0
        assert same_bits(study.lc_m3[-1], 0.0)


def test_initial_columns_split_and_heights():
    surface = flat_surface(height_mm=1200.0)
    heights = initial_columns(surface.spline)
    assert heights.shape == (16,)
    assert heights == pytest.approx(np.full(16, 1.2), rel=1e-6)
    # every design has 4 load-bearing and 12 formwork columns
    assert (LOAD_BEARING.sum(), (~LOAD_BEARING).sum()) == (4, 12)
    corner_xy = {(0.25, 0.25), (0.25, 1.75), (1.75, 0.25), (1.75, 1.75)}
    assert {tuple(p) for p in COLUMN_POSITIONS_M[LOAD_BEARING].tolist()} == corner_xy
    controls = np.full((1, 5, 5), 1200.0)  # the heights flat_surface interpolates
    study = _design("flat", controls, surface)
    # the table keeps the caller's stack, not a copy or a surface
    assert np.shares_memory(study.controls_mm[0], controls)
    assert np.array_equal(study.controls_mm[0], controls[0])
    assert study.lc_m3[0] == pytest.approx(4 * 0.0025 * 1.2, rel=1e-6)
    assert study.fc_m3[0] == pytest.approx(12 * 0.0025 * 1.2, rel=1e-6)


def test_column_heights_follow_the_surface():
    heights = initial_columns(dome_surface().spline)
    by_pos = dict(zip(map(tuple, COLUMN_POSITIONS_M.tolist()), heights.tolist()))
    # dome peaks at plan centre, so inner-ring columns stand taller
    assert by_pos[(0.75, 0.75)] > by_pos[(0.25, 0.25)]
    assert all(h >= 0.0 for h in by_pos.values())


def test_anchor_points_sit_on_base_corners():
    assert _anchor_points(AnchorKind.ONE, 2.0) == ((0.0, 0.0),)
    assert _anchor_points(AnchorKind.TWO_SIDE, 2.0) == ((0.0, 0.0), (2.0, 0.0))
    assert _anchor_points(AnchorKind.TWO_DIAGONAL, 2.0) == ((0.0, 0.0), (2.0, 2.0))
    assert len(_anchor_points(AnchorKind.THREE, 2.0)) == 3
    assert _anchor_points(AnchorKind.FOUR, 3.0) == (
        (0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0))


def test_shelter_grids_are_seeded_and_clamped():
    config = PipelineConfig()
    block = config.optimizer
    a = shelter_control_grid(config, 11, AnchorKind.FOUR, 4, 3)
    b = shelter_control_grid(config, 11, AnchorKind.FOUR, 4, 3)
    assert np.array_equal(a, b)
    c = shelter_control_grid(config, 11, AnchorKind.FOUR, 4, 4)
    assert not np.array_equal(a, c)

    m = block.control_F
    assert a.shape == (m + 1, m + 1)
    for (i, j) in ((0, 0), (m, 0), (m, m), (0, m)):
        assert a[i, j] == 0.0
    assert a.min() >= 0.0
    assert a.max() <= block.amplitude_cap_m * 1000.0

    single = shelter_control_grid(config, 11, AnchorKind.ONE, 0, 3)
    assert single[0, 0] == 0.0
    assert single[m, m] > 0.0  # unanchored corner stays free


def _design(cid: str, controls, surface, block: OptimizerBlock = BLOCK) -> Study:
    """The one-row study table of a stack of one FOUR-anchored control grid,
    scored over the span and at the lattice of `surface`, its surface."""
    config = replace(CONFIG, optimizer=block, gen3d=replace(
        CONFIG.gen3d, span_mm=surface.span_mm, resolution=len(surface.mesh.coords_m)))
    return evaluate_candidate([cid], controls, [FOUR_CODE], config)


def _dome_design(surface, block: OptimizerBlock = BLOCK):
    """The one-row study of a default dome_surface over the surface's span."""
    return _design("dome", dome_control(span_mm=surface.span_mm)[None], surface, block)


def _column_volumes(heights, side):
    """(load-bearing, formwork) volume sums in grid order."""
    volumes = (side * side * heights).tolist()
    return (sum(v for v, lb in zip(volumes, LOAD_BEARING) if lb),
            sum(v for v, lb in zip(volumes, LOAD_BEARING) if not lb))


def test_evaluate_candidate_collects_consistent_metrics():
    surface = dome_surface()
    study = _dome_design(surface)
    assert study.cms_m2[0] == pytest.approx(measure(surface).area_a)
    assert np.array_equal(study.heights_m[0], initial_columns(surface.spline))
    assert (study.lc_m3[0], study.fc_m3[0]) == _column_volumes(study.heights_m[0], SIDE)
    assert study.ua_m2[0] == _usable(surface)
    assert study.ua_m2[0] <= 4.0
    assert np.array_equal(study.volumes_m3[0], SIDE * SIDE * study.heights_m[0])
    least, fails = _slopes(surface)
    assert study.min_slope[0] == least and np.array_equal(study.fails[0], fails)
    # grades and scores are rank_designs' output, no column of the table
    assert not {"grades", "scores"} & set(Study._fields)


def test_evaluate_candidate_reads_the_block():
    surface = dome_surface()
    changed = replace(BLOCK, column_section_side_m=0.08, min_slope=0.5,
                      slope_rule="strict", headroom_m=0.5)
    study = _dome_design(surface, changed)
    heights = initial_columns(surface.spline)
    assert (study.lc_m3[0], study.fc_m3[0]) == _column_volumes(heights, 0.08)
    least, fails = slope_grid(surface.spline, surface.span_mm, 0.5, "strict")
    assert study.min_slope[0] == least and np.array_equal(study.fails[0], fails)
    assert study.ua_m2[0] == usable_area(surface.spline, surface.span_mm, 0.08, 0.5)
    base = _dome_design(surface)
    assert study.lc_m3[0] != base.lc_m3[0] and study.ua_m2[0] != base.ua_m2[0]
    assert (study.min_slope[0] != base.min_slope[0]
            or not np.array_equal(study.fails[0], base.fails[0]))


def test_formwork_reactions_cover_every_column():
    surface = dome_surface()
    study = _dome_design(surface)
    reactions = formwork_reactions(study, 0, surface, GRID, SPEC)
    assert set(reactions) == set(np.flatnonzero(~LOAD_BEARING).tolist())
    assert all(r >= 0.0 for r in reactions.values())


def test_zero_tolerance_blocks_every_removal():
    surface = dome_surface()
    study = _dome_design(surface)
    kept = reduce_formwork(study, 0, surface, 0.0, GRID, SPEC)
    assert kept.all()
    with pytest.raises(ParameterError):
        reduce_formwork(study, 0, surface, -0.1, GRID, SPEC)


def test_reduction_respects_its_own_tolerances():
    surface = dome_surface()
    study = _dome_design(surface)
    span_m = surface.span_mm / 1000.0
    heights = study.heights_m[0]
    p_ref, a_ref = _fit_supported_surface(FOUR, heights, EVERY_COLUMN, span_m)
    dP, da = 0.02 * p_ref, 0.02 * a_ref
    kept = reduce_formwork(study, 0, surface, 0.02, GRID, SPEC)
    assert kept.shape == (16,) and kept[LOAD_BEARING].all()
    p, a = _fit_supported_surface(FOUR, heights, kept, span_m)
    assert abs(p - p_ref) <= dP
    assert abs(a - a_ref) <= da


def test_design_solve_follows_the_structure_moduli():
    # a linear frame with every stiffness halved deflects exactly twice as far
    surface = dome_surface()
    study = _dome_design(surface)
    base = SPEC
    soft = replace(base, elastic_modulus=base.elastic_modulus / 2,
                   shear_modulus=base.shear_modulus / 2)
    stiff = _design_solve(study, 0, surface, EVERY_COLUMN, GRID, base).max_translation_mm
    halved = _design_solve(study, 0, surface, EVERY_COLUMN, GRID, soft).max_translation_mm
    assert halved / stiff == pytest.approx(2.0, rel=1e-9)


def test_reaction_lookup_clamps_like_the_supports():
    # on a 1.6 m plan the columns at 1.75 m stand past the far edge: they sit
    # on the clamped edge nodes, not on the first node of the next lattice
    # row, and their reactions are read there
    span_m = 1.6
    surface = dome_surface(span_mm=span_m * 1000.0)
    study = _dome_design(surface)
    reactions = formwork_reactions(study, 0, surface, GRID, SPEC)
    solved = _design_solve(study, 0, surface, EVERY_COLUMN, GRID, SPEC).reactions
    step = span_m / GRID
    for k, reaction in reactions.items():
        x, y = COLUMN_POSITIONS_M[k].tolist()
        node = min(round(x / step), GRID) * (GRID + 1) + min(round(y / step), GRID)
        assert reaction == abs(float(solved[node][2]))
    assert COLUMN_POSITIONS_M[14].tolist() == [1.75, 1.25]
    assert reactions[14] > 0.0


def test_one_reference_fit_per_study(monkeypatch):
    sizes = []
    original = optimizer._fit_supported_surface

    def counting(kind, heights, kept, span_m, *args):
        sizes.append(int(kept.sum()))
        return original(kind, heights, kept, span_m, *args)

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
    study = _dome_design(surface)
    assert study.cms_m2[0] == area


def test_optimize_is_deterministic_across_reruns():
    config = _with_optimizer(iterations_per_anchor=4)
    first = optimize(config, structure_spec(config), 11)
    second = optimize(config, structure_spec(config), 11)
    assert first.study.ids[first.order].tolist() == second.study.ids[second.order].tolist()
    ranked = first.order[first.study.drains[first.order]]
    assert first.scores[ranked].tolist() == second.scores[ranked].tolist()
    assert np.array_equal(first.kept_columns, second.kept_columns)


def test_full_study_outcome(optimize_result):
    result, study = optimize_result, optimize_result.study
    assert len(study.ids) == len(result.order) == 100
    winner = result.order[0]
    assert study.ids[winner] == "two-side-13"
    assert result.kept_columns[LOAD_BEARING].all()
    assert result.kept_columns[~LOAD_BEARING].sum() == 4
    assert not study.fails[winner].any()
    ranked = int(study.drains.sum())
    scores = result.scores[result.order[:ranked]].tolist()
    assert scores == sorted(scores, reverse=True)
    assert all(1.0 <= s <= 100.0 for s in scores)
    assert study.fails[result.order[ranked:]].any(axis=1).all()
    # within the default span's span/250 limit
    assert result.winner_analysis.max_translation_mm <= 8.0


def test_a_study_with_every_candidate_rejected_has_no_winner():
    config = _with_optimizer(iterations_per_anchor=1, min_slope=100.0)
    result = optimize(config, structure_spec(config), 11)
    assert not result.study.drains.any() and len(result.order) == 5
    assert (result.winner_surface, result.kept_columns, result.winner_analysis) == (
        None, None, None)


def test_study_keeps_only_the_winner_surface(monkeypatch):
    built, controls = [], []
    original = optimizer.interpolate_surface

    def tracking(z_mm, span_mm, resolution):
        surface = original(z_mm, span_mm, resolution)
        built.append(weakref.ref(surface))
        controls.append(z_mm)
        return surface

    monkeypatch.setattr(optimizer, "interpolate_surface", tracking)
    config = _with_optimizer(iterations_per_anchor=2)
    result = optimize(config, structure_spec(config), 11)
    gc.collect()
    # the ten candidates are scored as one stack, with no surface of their
    # own; then the winner alone is built, once
    assert len(built) == 1 and built[0]() is result.winner_surface
    # the winner is rebuilt from the control heights its row of the table kept
    study = result.study
    assert np.shares_memory(controls[0], study.controls_mm)
    assert controls[0].tobytes() == study.controls_mm[result.order[0]].tobytes()
    # the table, the winner's row included, holds no surface or mesh, and no
    # array it holds (or views) is a raster: at most the ten rows' 10 x 10
    # drainage masks, where one 64 x 64 lattice would hold 4096 values
    assert not holds_geometry(study)
    for array in study:
        assert (array if array.base is None else array.base).size <= 10 * 100


def test_scoring_a_study_holds_no_raster_of_every_candidate():
    # 150 candidates, as the shelter benchmark scores them: their 64 x 64 CMS
    # lattices and 100 x 100 UA rasters together take ~17 MB, so scoring
    # must stay well below that at its peak and keep ~nothing once done
    config = _with_optimizer(iterations_per_anchor=30)
    kinds = np.repeat(np.arange(len(KINDS)), 30)
    stack = np.array([shelter_control_grid(config, 11, KINDS[code], code, i % 30)
                      for i, code in enumerate(kinds.tolist())])
    ids = [str(i) for i in range(len(kinds))]
    evaluate_candidate(ids, stack, kinds, config)  # warm the basis caches
    tracemalloc.start()
    try:
        study = evaluate_candidate(ids, stack, kinds, config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(study.ids) == 150
    assert peak < 4e6 and held < 0.5e6


def test_winner_rebuild_is_bit_exact(optimize_result):
    study, winner = optimize_result.study, optimize_result.order[0]
    surface = optimize_result.winner_surface
    assert surface.mesh.area() == study.cms_m2[winner]
    again = interpolate_surface(study.controls_mm[winner], CONFIG.gen3d.span_mm,
                                CONFIG.gen3d.resolution)
    assert again.mesh.coords_m.tobytes() == surface.mesh.coords_m.tobytes()
    assert again.mesh.heights_m.tobytes() == surface.mesh.heights_m.tobytes()


@pytest.mark.parametrize("grid", [2, 3, 10])
def test_restraint_masks_match_the_support_dicts(grid):
    # the masks against the {node: kind} dicts they replaced, whose pins were
    # written last so that a pin won a node it shared with a sliding base; on
    # a 1 m plan the columns clamp onto the edge, and on the coarse lattices
    # formwork columns then share nodes with load-bearing ones
    n_nodes = (grid + 1) ** 2
    for mode in ("boundary-fixed", "corner-pinned"):
        expected = dict_restraint(n_nodes, dict_default_supports(grid, mode))
        assert default_supports(grid, mode).tobytes() == expected.tobytes()
    mixed = LOAD_BEARING | (np.arange(16) % 3 == 0)
    for span_m, kind, kept in itertools.product((2.0, 1.0), AnchorKind,
                                                (EVERY_COLUMN, LOAD_BEARING, mixed)):
        expected = dict_restraint(n_nodes, dict_support_nodes(grid, kind, span_m, kept))
        got = _support_nodes(grid, kind, span_m, kept)
        assert got.shape == (n_nodes, 6) and got.dtype == bool
        assert got.tobytes() == expected.tobytes()
