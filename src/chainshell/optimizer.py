"""Temporary-shelter form optimization.

Enumerates anchor configurations, generates seeded surface candidates under
a 3 m amplitude cap, gates them by the 2% drainage rule, grades survivors
1-100 on chainmail area (CMS), usable area (UA), and column volumes
(LC, FC), ranks by weighted score, and reduces formwork columns on the
winner while the supported shape stays within perimeter/area tolerances.
The study is one table, a row per candidate: scored as one lane stack (each
lane with its own surface's bits) and ranked by one sort over its columns.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import fem
from .config import OptimizerBlock, PipelineConfig
from .errors import ParameterError
# unused here, but bench/test_bench.py checks that the tracer rebinds
# chainshell.optimizer.measure, so the name stays importable
from .filtering import measure  # noqa: F401
from .loads import StructureSpec, combine
from .shell3d import (ShellSurface, TriangleMesh, control_spline, interpolate_surface,
                      lattice_area, random_doubles)
from .spline import GridSpline, thin_plate_grid

SLOPE_GRID_POINTS = 10       # 10x10 grid of sample points
USABLE_AREA_RASTER = 100     # 100x100 plan raster
_CHUNK_LANES = 2  # lanes per CMS lattice and UA raster: wider holds more, no faster

# Every design stands 16 columns on one 4x4 plan grid at 0.5 m spacing.
# Column k of the grid order stands at (x_i, y_j) with k = 4 * i + j; the
# four corner-most columns are permanent load-bearing supports, the twelve
# others removable formwork.
_GRID_AXIS_M = np.array([0.25, 0.75, 1.25, 1.75])
COLUMN_POSITIONS_M = np.stack(np.meshgrid(_GRID_AXIS_M, _GRID_AXIS_M, indexing="ij"),
                              axis=-1).reshape(-1, 2)
LOAD_BEARING = np.isin(COLUMN_POSITIONS_M, _GRID_AXIS_M[[0, -1]]).all(axis=1)
# the columns load-bearing first, then formwork, each in grid order
COLUMN_ORDER = np.argsort(~LOAD_BEARING, kind="stable")
# the widest column section whose footprints neither overlap each other nor
# cross the plan's near edges: the grid spacing, and twice the nearest line
MAX_SECTION_SIDE_M = min(float(np.diff(_GRID_AXIS_M).min()), 2.0 * float(_GRID_AXIS_M[0]))
for _constant in (_GRID_AXIS_M, COLUMN_POSITIONS_M, LOAD_BEARING, COLUMN_ORDER):
    _constant.flags.writeable = False
del _constant


class AnchorKind(enum.Enum):
    ONE = "one"
    TWO_SIDE = "two-side"
    TWO_DIAGONAL = "two-diagonal"
    THREE = "three"
    FOUR = "four"


# the base-square corners each kind pins, in plan fractions (x, y); the
# thin-plate fit takes its anchor points in this order
_ANCHOR_CORNERS = {
    AnchorKind.ONE: ((0, 0),),
    AnchorKind.TWO_SIDE: ((0, 0), (1, 0)),
    AnchorKind.TWO_DIAGONAL: ((0, 0), (1, 1)),
    AnchorKind.THREE: ((0, 0), (1, 0), (1, 1)),
    AnchorKind.FOUR: ((0, 0), (1, 0), (1, 1), (0, 1)),
}
# a study row's kind is its code, the kind's index here
KINDS = tuple(AnchorKind)
# (code, fx, fy) of every base corner a kind pins
_PINS = np.array([(code, fx, fy) for code, kind in enumerate(KINDS)
                  for fx, fy in _ANCHOR_CORNERS[kind]])
_PINS.flags.writeable = False


def _anchor_points(kind: AnchorKind, span_m: float) -> Tuple[Tuple[float, float], ...]:
    """Ground-pin plan coordinates (m) on the base-square corners."""
    return tuple((fx * span_m, fy * span_m) for fx, fy in _ANCHOR_CORNERS[kind])


def initial_columns(spline: GridSpline) -> np.ndarray:
    """(..., 16) column heights (m) in grid order, per lane of the spline:
    the surface height over each column, never below ground."""
    axis_mm = _GRID_AXIS_M * 1000.0
    heights = (spline(axis_mm, axis_mm) / 1000.0).reshape(spline.coeffs.shape[:-2] + (16,))
    # max(h, 0.0) elementwise: a NaN or a -0.0 height is kept as it is
    return np.where(heights < 0.0, 0.0, heights)


def drainage_points_m(span_mm: float) -> np.ndarray:
    """(100, 2) plan coordinates (m) of the 10x10 drainage grid in row-major
    order, the order of slope_grid's failing mask."""
    coords_m = np.linspace(0.0, span_mm, SLOPE_GRID_POINTS) / 1000.0
    return np.stack(np.meshgrid(coords_m, coords_m, indexing="ij"), axis=-1).reshape(-1, 2)


def slope_grid(spline: GridSpline, span_mm: float, min_slope: float, rule: str):
    """Drainage check on a 10x10 grid of surface points: the least point
    slope and the (100,) mask of the points that fail, in the row-major
    order of drainage_points_m, each with a leading lane axis on a stack.

    Slope between 4-neighbours is |dh| / horizontal distance.  A point's
    slope is its steepest neighbour slope under the ponding rule (it drains
    if any direction does) and its shallowest under the strict rule; the
    point fails unless that slope reaches the threshold.
    """
    if rule == "ponding":
        pad, reduce = -np.inf, np.fmax
    elif rule == "strict":
        pad, reduce = np.inf, np.fmin
    else:
        raise ParameterError(f"unknown drainage rule {rule!r}")
    n = SLOPE_GRID_POINTS
    coords_mm = np.linspace(0.0, span_mm, n)
    z_m = spline(coords_mm, coords_mm) / 1000.0
    step_m = (coords_mm[1] - coords_mm[0]) / 1000.0
    sx = np.abs(np.diff(z_m, axis=-2)) / step_m  # (n-1, n) slopes between x-neighbours
    sy = np.abs(np.diff(z_m, axis=-1)) / step_m  # (n, n-1)

    # the neighbour layers -x, +x, -y, +y, padded where the grid edge has none,
    # reduced in order one at a time; fmax and fmin pass over a NaN slope
    slopes, layer = np.full(z_m.shape, pad), np.empty(z_m.shape)
    slopes[..., 1:, :] = sx
    for part, s in ((np.s_[..., :-1, :], sx), (np.s_[..., 1:], sy), (np.s_[..., :-1], sy)):
        layer.fill(pad)
        layer[part] = s
        reduce(slopes, layer, out=slopes)
    return (slopes.min(axis=(-2, -1)),
            ~(slopes >= min_slope).reshape(slopes.shape[:-2] + (n * n,)))


def usable_area(spline: GridSpline, span_mm: float, section_side: float,
                headroom: float, raster: int = USABLE_AREA_RASTER):
    """UA = A_T - A_O on a plan raster of cell centres, per lane of the spline.

    Obstructed cells have clear height below the headroom or sit inside the
    square footprint of a column of side `section_side`.
    """
    span_m = span_mm / 1000.0
    cell = span_m / raster
    centres_m = (np.arange(raster) + 0.5) * cell
    z_m = spline(centres_m * 1000.0, centres_m * 1000.0) / 1000.0
    obstructed = (z_m < headroom) | _footprints(span_m, raster, section_side)
    return (~obstructed).sum(axis=(-2, -1)) * cell * cell


@functools.lru_cache(maxsize=4)
def _footprints(span_m: float, raster: int, section_side: float) -> np.ndarray:
    """Read-only mask of the raster cells inside any column footprint."""
    centres_m = (np.arange(raster) + 0.5) * (span_m / raster)
    # taken from the section area side * side: its root can differ from side
    # in the last bit, and that bit decides a cell centre on a footprint edge
    half = math.sqrt(section_side * section_side) / 2.0
    # a cell is covered along an axis when a grid line's footprint span holds
    # its centre; the grid is a full product, so the mask is the outer AND
    along = (np.abs(centres_m - _GRID_AXIS_M[:, None]) <= half).any(axis=0)
    mask = np.outer(along, along)
    mask.flags.writeable = False
    return mask


def grade(values: Sequence[float]) -> np.ndarray:
    """Affine 1-100 rescale within a cohort, elementwise: lowest 100, highest 1.

    An all-equal cohort grades 100 across the board.  Grading the negated
    values rewards the highest instead, bit for bit as the mirrored formula
    would: IEEE negation is exact.
    """
    if len(values) == 0:
        raise ParameterError("cannot grade an empty cohort")
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.full(len(arr), 100.0)
    return 1.0 + 99.0 * ((hi - arr) / (hi - lo))


class Study(NamedTuple):
    """A scored study as one table, a row per candidate.  It keeps each
    surface's control heights, not the surface: interpolate_surface rebuilds
    that surface bit for bit where it is needed."""

    ids: np.ndarray          # (L,) str
    kinds: np.ndarray        # (L,) kind codes, indices into KINDS
    controls_mm: np.ndarray  # (L, m, m) control heights over the [gen3d] span
    heights_m: np.ndarray    # (L, 16) column heights in grid order
    volumes_m3: np.ndarray   # (L, 16) column volumes in grid order
    cms_m2: np.ndarray       # (L,) chainmail area (CMS)
    ua_m2: np.ndarray        # (L,) usable area (UA)
    min_slope: np.ndarray    # (L,) least drainage slope
    fails: np.ndarray        # (L, 100) failing drainage-grid points; a row drains if none

    @property
    def drains(self) -> np.ndarray:
        return ~self.fails.any(axis=-1)

    # LC and FC add a row's columns one at a time in grid order from 0.0, as
    # Python's sum adds a list: np.sum's pairwise blocks could reorder them
    @property
    def lc_m3(self) -> np.ndarray:
        """LC: the load-bearing column volume of each row."""
        return functools.reduce(np.add, self.volumes_m3[:, LOAD_BEARING].T, 0.0)

    @property
    def fc_m3(self) -> np.ndarray:
        """FC: the formwork column volume of each row."""
        return functools.reduce(np.add, self.volumes_m3[:, ~LOAD_BEARING].T, 0.0)


def evaluate_candidate(candidate_ids: Sequence[str], controls_mm: np.ndarray,
                       kinds: Sequence[int], config: PipelineConfig) -> Study:
    """The study table, under the [optimizer] block, of the surfaces through the
    (L, m, m) control heights `controls_mm` (mm) over the [gen3d] span, row i
    named candidate_ids[i] of kind code kinds[i]: one fit and one call per small
    grid, then CMS on the resolution lattice and UA _CHUNK_LANES lanes at a time."""
    block, span_mm = config.optimizer, config.gen3d.span_mm
    side = block.column_section_side_m
    splines = control_spline(controls_mm, span_mm)
    heights = initial_columns(splines)
    least, fails = slope_grid(splines, span_mm, block.min_slope, block.slope_rule)
    lattice = np.linspace(0.0, span_mm, config.gen3d.resolution)
    cms, ua = np.empty(len(controls_mm)), np.empty(len(controls_mm))
    for lo in range(0, len(controls_mm), _CHUNK_LANES):
        lanes = slice(lo, lo + _CHUNK_LANES)
        part = splines[lanes]
        cms[lanes] = lattice_area(lattice / 1000.0, part(lattice, lattice) / 1000.0)
        ua[lanes] = usable_area(part, span_mm, side, block.headroom_m)
    return Study(ids=np.asarray(candidate_ids, dtype=str), kinds=np.asarray(kinds),
                 controls_mm=controls_mm, heights_m=heights, volumes_m3=side * side * heights,
                 cms_m2=cms, ua_m2=ua, min_slope=least, fails=fails)


def rank_designs(study: Study, weights: Tuple[float, float, float, float]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drainage-gate, grade survivors per criterion, sort by weighted score.

    Returns the row order (the survivors best first, a survivor's rank its
    1-based position, then the drainage rejects in input order), the (L, 4)
    CMS, UA, LC and FC grades and the (L,) weighted scores; a reject's grades
    and score are NaN, for it never enters a grading cohort.  Ties break on
    lower CMS, then higher UA, then input order.
    """
    if len(study.ids) == 0:
        raise ParameterError("no candidates to rank")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ParameterError("criterion weights must sum to 1.0")
    drains = study.drains
    survivors, rejected = np.flatnonzero(drains), np.flatnonzero(~drains)
    grades = np.full((len(drains), 4), np.nan)
    scores = np.full(len(drains), np.nan)
    if not len(survivors):
        return rejected, grades, scores

    cms, ua = study.cms_m2[survivors], study.ua_m2[survivors]
    g_cms, g_ua = grade(cms), grade(-ua)
    g_lc, g_fc = grade(study.lc_m3[survivors]), grade(study.fc_m3[survivors])
    w_cms, w_ua, w_lc, w_fc = weights
    score = w_cms * g_cms + w_ua * g_ua + w_lc * g_lc + w_fc * g_fc
    grades[survivors] = np.stack([g_cms, g_ua, g_lc, g_fc], axis=1)
    scores[survivors] = score
    # the last key sorts first; each key sorts stably and compares -0.0 equal
    # to 0.0, as sorted() compares them, so full ties keep input order
    order = survivors[np.lexsort((-ua, cms, -score))]
    return np.concatenate([order, rejected]), grades, scores


def _support_nodes(grid: int, kind: AnchorKind, span_m: float,
                   kept: np.ndarray) -> np.ndarray:
    """The (N, 6) restraint mask of the anchors and the kept column tops,
    each held at its nearest lattice node.

    Anchors pin the shell edge; load-bearing columns (fixed base, pinned
    top) restrain translation; formwork columns (sliding base) restrain
    only the vertical direction.  A node under several holds keeps all of
    them.
    """
    restrained = np.zeros(((grid + 1) ** 2, fem.DOF_PER_NODE), dtype=bool)
    columns = _lattice_nodes(span_m, grid, COLUMN_POSITIONS_M)
    restrained[columns[kept & ~LOAD_BEARING]] |= fem.SLIDING_BASE
    restrained[columns[kept & LOAD_BEARING]] |= fem.PINNED
    restrained[_lattice_nodes(span_m, grid, _anchor_points(kind, span_m))] |= fem.PINNED
    return restrained


def _lattice_nodes(span_m: float, grid: int, xy) -> np.ndarray:
    """The nearest (grid+1)^2 lattice node to each plan point (x, y) of xy,
    clamped to the span; halves round to even, as round() does."""
    ij = np.clip(np.rint(np.asarray(xy) / (span_m / grid)), 0, grid).astype(int)
    return ij[:, 0] * (grid + 1) + ij[:, 1]


def _design_solve(study: Study, row: int, surface: ShellSurface, kept: np.ndarray,
                  grid: int, structure: StructureSpec) -> fem.SolveResult:
    """Frame solve of the surface of the study's row on its anchors and kept columns."""
    supports = _support_nodes(grid, KINDS[study.kinds[row]], surface.span_mm / 1000.0, kept)
    case = combine(structure, float(study.cms_m2[row]))
    return fem.analyze_shell(surface, case, structure, supports, grid)


def formwork_reactions(study: Study, row: int, surface: ShellSurface, grid: int,
                       structure: StructureSpec) -> Dict[int, float]:
    """Vertical FEM reaction magnitude (kN) carried by each formwork column
    of the study's row, whose surface is `surface`, keyed by column index."""
    reactions = _design_solve(study, row, surface, np.ones_like(LOAD_BEARING), grid,
                              structure).reactions
    columns = _lattice_nodes(surface.span_mm / 1000.0, grid, COLUMN_POSITIONS_M)
    # every formwork column holds its node's uz, so each has a reaction
    return {k: abs(float(reactions[columns[k], 2]))
            for k in np.flatnonzero(~LOAD_BEARING).tolist()}


def _fit_supported_surface(kind: AnchorKind, heights: np.ndarray, kept: np.ndarray,
                           span_m: float, resolution: int = 33):
    """Thin-plate fit through anchor pins and kept column tops; (P, a) of the fit."""
    anchors = _anchor_points(kind, span_m)
    columns = COLUMN_ORDER[kept[COLUMN_ORDER]]
    xy = np.concatenate([np.array(anchors), COLUMN_POSITIONS_M[columns]])
    z = np.concatenate([np.zeros(len(anchors)), heights[columns]])
    coords = np.linspace(0.0, span_m, resolution)
    Z = thin_plate_grid(xy, z, coords)
    # mesh the fit directly for perimeter/area comparison
    mesh = TriangleMesh(coords_m=coords, heights_m=Z)
    return mesh.boundary_length(), mesh.area()


def reduce_formwork(study: Study, row: int, surface: ShellSurface, tolerance: float,
                    grid: int, structure: StructureSpec) -> np.ndarray:
    """Remove formwork columns while the supported shape holds its metrics;
    returns the (16,) mask of the kept columns.

    Candidates are tried in ascending order of FEM vertical reaction, ties
    in grid order; a removal sticks iff the thin-plate fit through the
    anchors and the remaining column tops stays within dP = tolerance *
    P_ref and da = tolerance * a_ref of the full 16-column reference fit
    (P_ref, a_ref).  Load-bearing columns are never touched.  `surface` is
    the surface of the study's row, which the reaction solve needs.
    """
    if tolerance < 0:
        raise ParameterError("tolerance must be non-negative")
    span_m = surface.span_mm / 1000.0
    kind, heights = KINDS[study.kinds[row]], study.heights_m[row]
    kept = np.ones_like(LOAD_BEARING)
    p_ref, a_ref = _fit_supported_surface(kind, heights, kept, span_m)
    dP, da = tolerance * p_ref, tolerance * a_ref

    reactions = formwork_reactions(study, row, surface, grid, structure)
    order = sorted(reactions, key=lambda k: (reactions[k], k))

    removed_any = True
    while removed_any:
        removed_any = False
        for k in order:
            if not kept[k]:
                continue
            trial = kept.copy()
            trial[k] = False
            p, a = _fit_supported_surface(kind, heights, trial, span_m)
            if abs(p - p_ref) <= dP and abs(a - a_ref) <= da:
                kept = trial
                removed_any = True
        # one full sweep with no acceptable removal terminates the loop
    return kept


def _stream_keys(seed: int, iterations: int) -> List[Tuple[int, int]]:
    """The Philox keys of a study's candidate streams in row order: kind by
    kind, and each kind's iterations in turn."""
    return list(itertools.product(range(seed * 5, seed * 5 + len(KINDS)), range(iterations)))


def _stream_length(block: OptimizerBlock) -> int:
    """Doubles a shelter grid takes from its stream: the amplitude, then
    one height per control point."""
    return 1 + (block.control_F + 1) ** 2


def _shelter_grid(config: PipelineConfig, kinds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (L, F+1, F+1) shelter control heights (mm) of the (L, n) stream
    doubles `u`, each mapped as numpy's uniform maps it: low + (high - low) * u.
    A row's amplitude comes first, then its heights in row-major order; the
    points over the base corners its kind code (`kinds`) pins are grounded."""
    block = config.optimizer
    lo = block.amplitude_min_fraction * block.amplitude_cap_m
    amp_m = lo + (block.amplitude_cap_m - lo) * u[:, 0]
    m = block.control_F + 1
    z_mm = (0.0 + (amp_m[:, None] * 1000.0 - 0.0) * u[:, 1:]).reshape(-1, m, m)
    lane, pin = np.nonzero(np.asarray(kinds)[:, None] == _PINS[:, 0])
    z_mm[lane, _PINS[pin, 1] * (m - 1), _PINS[pin, 2] * (m - 1)] = 0.0
    return z_mm


@dataclass(frozen=True)
class OptimizeResult:
    """The study table with rank_designs' order, grades and scores; for its
    winner (row order[0]; none if every candidate is rejected) its surface,
    the (16,) mask of the columns formwork reduction kept, and their solve."""

    study: Study
    order: np.ndarray   # (L,) rows: survivors best first, then the rejects
    grades: np.ndarray  # (L, 4)
    scores: np.ndarray  # (L,)
    winner_surface: Optional[ShellSurface]  # the one surface the study keeps
    kept_columns: Optional[np.ndarray]
    winner_analysis: Optional[fem.SolveResult]


def optimize(config: PipelineConfig, structure: StructureSpec,
             seed: int) -> OptimizeResult:
    """Full shelter study: 5 anchor kinds x N iterations, ranked globally.

    Reads [optimizer], [gen3d] span_mm and resolution and [fem] lattice_grid
    from the config.  The candidates are scored as one stack and keep no
    surface; the winner's is rebuilt once from its control heights for
    formwork reduction and its frame solve.
    Results are deterministic for a given (config, structure, seed).
    """
    block, grid = config.optimizer, config.fem.lattice_grid
    n = block.iterations_per_anchor
    kinds = np.repeat(np.arange(len(KINDS)), n)
    ids = np.char.add(np.array([f"{kind.value}-" for kind in KINDS])[kinds],
                      np.char.zfill(np.tile(np.arange(n), len(KINDS)).astype(str), 2))
    # every candidate's stream, drawn in one call before any is scored
    draws = random_doubles(_stream_keys(seed, n), _stream_length(block))
    study = evaluate_candidate(ids, _shelter_grid(config, kinds, draws), kinds, config)
    order, grades, scores = rank_designs(study, block.weights)
    if not study.drains.any():
        return OptimizeResult(study, order, grades, scores, winner_surface=None,
                              kept_columns=None, winner_analysis=None)

    winner = int(order[0])
    surface = interpolate_surface(study.controls_mm[winner], config.gen3d.span_mm,
                                  config.gen3d.resolution)
    kept = reduce_formwork(study, winner, surface, block.reduction_tolerance, grid, structure)
    analysis = _design_solve(study, winner, surface, kept, grid, structure)
    return OptimizeResult(study, order, grades, scores, winner_surface=surface,
                          kept_columns=kept, winner_analysis=analysis)
