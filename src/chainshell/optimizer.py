"""Temporary-shelter form optimization.

Enumerates anchor configurations, generates seeded surface candidates under
a 3 m amplitude cap, gates them by the 2% drainage rule, grades survivors
1-100 on chainmail area (CMS), usable area (UA), and column volumes
(LC, FC), ranks by weighted score, and reduces formwork columns on the
winner while the supported shape stays within perimeter/area tolerances.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fem
from .config import OptimizerBlock, PipelineConfig
from .errors import ParameterError
from .fem import SupportKind
# unused here, but bench/test_bench.py checks that the tracer rebinds
# chainshell.optimizer.measure, so the name stays importable
from .filtering import measure  # noqa: F401
from .loads import StructureSpec, combine
from .shell3d import (ControlGrid, ShellSurface, TriangleMesh, _iteration_rng,
                      interpolate_surface)
from .spline import thin_plate_grid

SLOPE_GRID_POINTS = 10       # 10x10 grid of sample points
USABLE_AREA_RASTER = 100     # 100x100 plan raster
COLUMN_GRID_POSITIONS_M = (0.25, 0.75, 1.25, 1.75)


class AnchorKind(enum.Enum):
    ONE = "one"
    TWO_SIDE = "two-side"
    TWO_DIAGONAL = "two-diagonal"
    THREE = "three"
    FOUR = "four"


# base-square corners in plan fractions (x, y)
_CORNERS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_ANCHOR_CORNERS = {
    AnchorKind.ONE: (0,),
    AnchorKind.TWO_SIDE: (0, 1),
    AnchorKind.TWO_DIAGONAL: (0, 2),
    AnchorKind.THREE: (0, 1, 2),
    AnchorKind.FOUR: (0, 1, 2, 3),
}


@dataclass(frozen=True)
class AnchorConfig:
    kind: AnchorKind
    span_m: float

    @property
    def points(self) -> Tuple[Tuple[float, float], ...]:
        """Ground-pin plan coordinates (m) on the base-square corners."""
        return tuple((fx * self.span_m, fy * self.span_m)
                     for i in _ANCHOR_CORNERS[self.kind]
                     for fx, fy in (_CORNERS[i],))


@dataclass(frozen=True)
class Column:
    position: Tuple[float, float]  # plan, m
    height: float                  # m
    section_area: float            # m2

    @property
    def volume(self) -> float:
        return self.section_area * self.height


@dataclass(frozen=True)
class ColumnSet:
    load_bearing: Tuple[Column, ...]
    formwork: Tuple[Column, ...]

    @property
    def lc_volume(self) -> float:
        return sum(c.volume for c in self.load_bearing)

    @property
    def fc_volume(self) -> float:
        return sum(c.volume for c in self.formwork)

    def all_columns(self) -> Tuple[Column, ...]:
        return self.load_bearing + self.formwork


def initial_columns(surface: ShellSurface, section_side: float) -> ColumnSet:
    """16 columns on the 4x4 grid at 0.5 m spacing.

    The four corner-most columns are permanent load-bearing supports; the
    twelve others are removable formwork.  Column height equals the surface
    height at its plan position (never below ground).
    """
    area = section_side * section_side
    lb, fw = [], []
    ends = (COLUMN_GRID_POSITIONS_M[0], COLUMN_GRID_POSITIONS_M[-1])
    positions_mm = np.array(COLUMN_GRID_POSITIONS_M) * 1000.0
    heights_mm = surface.evaluate(positions_mm, positions_mm)  # [i, j] = (x_i, y_j)
    for i, x in enumerate(COLUMN_GRID_POSITIONS_M):
        for j, y in enumerate(COLUMN_GRID_POSITIONS_M):
            h = float(heights_mm[i, j]) / 1000.0
            col = Column(position=(x, y), height=max(h, 0.0), section_area=area)
            if x in ends and y in ends:
                lb.append(col)
            else:
                fw.append(col)
    return ColumnSet(load_bearing=tuple(lb), formwork=tuple(fw))


@dataclass(frozen=True)
class SlopeReport:
    """Max-neighbour slope per grid point plus the drainage verdict."""

    slopes: np.ndarray                 # (10, 10) max neighbour slope
    passed: bool
    failing_points: Tuple[Tuple[float, float], ...]  # plan coords, m

    @property
    def min_slope_S(self) -> float:
        return float(self.slopes.min())

    def __eq__(self, other):  # ndarray field, compare by content
        return (isinstance(other, SlopeReport)
                and np.array_equal(self.slopes, other.slopes)
                and self.passed == other.passed
                and self.failing_points == other.failing_points)


def slope_grid(surface: ShellSurface, min_slope: float, rule: str) -> SlopeReport:
    """Drainage check on a 10x10 grid of surface points.

    Slope between 4-neighbours is |dh| / horizontal distance.  Under the
    ponding rule a point fails iff all its neighbour slopes are
    below the threshold (no direction drains); the strict rule fails a
    point when any neighbour slope is below it.
    """
    n = SLOPE_GRID_POINTS
    coords_mm = np.linspace(0.0, surface.span_mm, n)
    z_m = np.asarray(surface.evaluate(coords_mm, coords_mm)) / 1000.0
    step_m = (coords_mm[1] - coords_mm[0]) / 1000.0
    sx = np.abs(np.diff(z_m, axis=0)) / step_m  # (n-1, n) slopes between x-neighbours
    sy = np.abs(np.diff(z_m, axis=1)) / step_m  # (n, n-1)

    big = np.inf
    neigh = np.full((n, n, 4), -1.0)
    neigh[1:, :, 0] = sx       # toward -x
    neigh[:-1, :, 1] = sx      # toward +x
    neigh[:, 1:, 2] = sy       # toward -y
    neigh[:, :-1, 3] = sy      # toward +y

    has = neigh >= 0
    if rule == "ponding":
        # fails iff every existing neighbour slope is under the threshold
        drains = (neigh >= min_slope) & has
        fail = ~drains.any(axis=2)
        slopes = np.where(has, neigh, -big).max(axis=2)
    elif rule == "strict":
        under = (neigh < min_slope) & has
        fail = under.any(axis=2)
        slopes = np.where(has, neigh, big).min(axis=2)
    else:
        raise ParameterError(f"unknown drainage rule {rule!r}")

    pts = []
    coords_m = coords_mm / 1000.0
    for i, j in zip(*np.nonzero(fail)):
        pts.append((float(coords_m[i]), float(coords_m[j])))
    return SlopeReport(slopes=slopes, passed=not fail.any(),
                       failing_points=tuple(pts))


def usable_area(surface: ShellSurface, columns: Optional[ColumnSet], headroom: float,
                raster: int = USABLE_AREA_RASTER) -> float:
    """UA = A_T - A_O on a plan raster of cell centres.

    Obstructed cells have clear height below the headroom or sit inside a
    column footprint.
    """
    span_m = surface.span_mm / 1000.0
    cell = span_m / raster
    centres_m = (np.arange(raster) + 0.5) * cell
    z_m = np.asarray(surface.evaluate(centres_m * 1000.0, centres_m * 1000.0)) / 1000.0
    obstructed = z_m < headroom
    if columns is not None:
        # candidates differ in column heights, not in where the columns stand
        obstructed |= _footprints(span_m, raster, tuple(
            (c.position, c.section_area) for c in columns.all_columns()))
    free = int((~obstructed).sum())
    return free * cell * cell


@functools.lru_cache(maxsize=4)
def _footprints(span_m: float, raster: int,
                columns: Tuple[Tuple[Tuple[float, float], float], ...]) -> np.ndarray:
    """Read-only mask of the raster cells inside any ((x, y), section area)
    column footprint."""
    centres_m = (np.arange(raster) + 0.5) * (span_m / raster)
    mask = np.zeros((raster, raster), dtype=bool)
    for (cx, cy), section_area in columns:
        half = math.sqrt(section_area) / 2.0
        # an axis-aligned footprint is the outer AND of its x and y spans
        mask |= np.outer(np.abs(centres_m - cx) <= half,
                         np.abs(centres_m - cy) <= half)
    mask.flags.writeable = False
    return mask


class Orientation(enum.Enum):
    MINIMIZE_BEST = "minimize"
    MAXIMIZE_BEST = "maximize"


def grade(values: Sequence[float],
          orientation: Orientation = Orientation.MINIMIZE_BEST) -> List[float]:
    """Affine 1-100 rescale within a cohort: best 100, worst 1.

    An all-equal cohort grades 100 across the board.
    """
    if len(values) == 0:
        raise ParameterError("cannot grade an empty cohort")
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return [100.0] * len(arr)
    if orientation is Orientation.MINIMIZE_BEST:
        t = (hi - arr) / (hi - lo)
    else:
        t = (arr - lo) / (hi - lo)
    return list(1.0 + 99.0 * t)


@dataclass(frozen=True, eq=False)
class CandidateDesign:
    """A scored design: its chainmail and usable areas here, its column
    volumes and counts in `columns`, its drainage verdict in `slope_report`.
    It keeps the control grid and sample resolution that define its
    surface, not the surface: interpolate_surface rebuilds that surface bit
    for bit where it is needed."""

    candidate_id: str
    anchors: AnchorConfig
    columns: ColumnSet
    control: ControlGrid
    resolution: int
    cms_m2: float
    ua_m2: float
    slope_report: SlopeReport
    grades: Optional[Dict[str, float]] = None
    weighted_score: Optional[float] = None


def evaluate_candidate(candidate_id: str, surface: ShellSurface,
                       anchors: AnchorConfig, block: OptimizerBlock) -> CandidateDesign:
    """Columns, drainage, CMS and UA of one surface under the [optimizer] block."""
    columns = initial_columns(surface, block.column_section_side_m)
    report = slope_grid(surface, block.min_slope, block.slope_rule)
    return CandidateDesign(candidate_id=candidate_id, anchors=anchors,
                           columns=columns, control=surface.control,
                           resolution=surface.sample_resolution,
                           cms_m2=surface.mesh.area(),
                           ua_m2=usable_area(surface, columns, block.headroom_m),
                           slope_report=report)


@dataclass(frozen=True)
class RankingReport:
    """Survivors best first (a candidate's rank is its 1-based position),
    then the drainage rejects in input order."""

    ranked: Tuple[CandidateDesign, ...]
    rejected: Tuple[CandidateDesign, ...]

    @property
    def winner(self) -> Optional[CandidateDesign]:
        return self.ranked[0] if self.ranked else None


def rank_designs(candidates: Sequence[CandidateDesign],
                 weights: Tuple[float, float, float, float]) -> RankingReport:
    """Drainage-gate, grade survivors per criterion, sort by weighted score.

    Rejected candidates never enter any grading cohort.  Ties break on
    lower CMS, then higher UA, then input order.
    """
    if not candidates:
        raise ParameterError("no candidates to rank")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ParameterError("criterion weights must sum to 1.0")
    survivors = [c for c in candidates if c.slope_report.passed]
    rejected = tuple(c for c in candidates if not c.slope_report.passed)
    if not survivors:
        return RankingReport(ranked=(), rejected=rejected)

    def column_scalar(volumes: List[float], counts: List[int]) -> List[float]:
        # minimize by volume, by count only when every volume ties
        if max(volumes) > min(volumes):
            return volumes
        return [float(c) for c in counts]

    g_cms = grade([c.cms_m2 for c in survivors], Orientation.MINIMIZE_BEST)
    g_ua = grade([c.ua_m2 for c in survivors], Orientation.MAXIMIZE_BEST)
    g_lc = grade(column_scalar([c.columns.lc_volume for c in survivors],
                               [len(c.columns.load_bearing) for c in survivors]),
                 Orientation.MINIMIZE_BEST)
    g_fc = grade(column_scalar([c.columns.fc_volume for c in survivors],
                               [len(c.columns.formwork) for c in survivors]),
                 Orientation.MINIMIZE_BEST)

    w_cms, w_ua, w_lc, w_fc = weights
    scored = []
    for i, c in enumerate(survivors):
        grades = {"CMS": g_cms[i], "UA": g_ua[i], "LC": g_lc[i], "FC": g_fc[i]}
        score = (w_cms * g_cms[i] + w_ua * g_ua[i]
                 + w_lc * g_lc[i] + w_fc * g_fc[i])
        scored.append(replace(c, grades=grades, weighted_score=score))

    order = sorted(range(len(scored)),
                   key=lambda i: (-scored[i].weighted_score, scored[i].cms_m2,
                                  -scored[i].ua_m2, i))
    return RankingReport(ranked=tuple(scored[i] for i in order), rejected=rejected)


def _support_nodes(grid: int, anchors: AnchorConfig,
                   columns: ColumnSet) -> Dict[int, SupportKind]:
    """Map anchors and column tops to nearest lattice nodes.

    Anchors pin the shell edge; load-bearing columns (fixed base, pinned
    top) restrain translation; formwork columns (sliding base) restrain
    only the vertical direction.  Stronger kinds win collisions.
    """
    span_m = anchors.span_m
    strength = {SupportKind.FIXED: 3, SupportKind.PINNED: 2,
                SupportKind.SLIDING_BASE: 1}
    supports: Dict[int, SupportKind] = {}

    def put(node: int, kind: SupportKind):
        have = supports.get(node)
        if have is None or strength[kind] > strength[have]:
            supports[node] = kind

    for (x, y) in anchors.points:
        put(_lattice_node(span_m, grid, x, y), SupportKind.PINNED)
    for col in columns.load_bearing:
        put(_lattice_node(span_m, grid, *col.position), SupportKind.PINNED)
    for col in columns.formwork:
        put(_lattice_node(span_m, grid, *col.position), SupportKind.SLIDING_BASE)
    return supports


def _lattice_node(span_m: float, grid: int, x: float, y: float) -> int:
    """Nearest (grid+1)^2 lattice node to a plan point, clamped to the span."""
    step = span_m / grid
    i = min(max(int(round(x / step)), 0), grid)
    j = min(max(int(round(y / step)), 0), grid)
    return i * (grid + 1) + j


def _design_solve(design: CandidateDesign, surface: ShellSurface, columns: ColumnSet,
                  grid: int, structure: StructureSpec) -> fem.SolveResult:
    """Frame solve of the design's surface on its anchors and the given columns."""
    supports = _support_nodes(grid, design.anchors, columns)
    case = combine(structure, design.cms_m2)
    return fem.analyze_shell(surface, case, structure, supports, grid)


def formwork_reactions(design: CandidateDesign, surface: ShellSurface, grid: int,
                       structure: StructureSpec) -> Dict[Column, float]:
    """Vertical FEM reaction magnitude (kN) carried by each formwork column
    of `design`, whose surface is `surface`."""
    reactions = _design_solve(design, surface, design.columns, grid,
                              structure).reactions
    span_m = design.anchors.span_m
    # every formwork column is a support node, so each has a reaction
    return {col: abs(float(reactions[_lattice_node(span_m, grid, *col.position)][2]))
            for col in design.columns.formwork}


def _fit_supported_surface(anchors: AnchorConfig, columns: Sequence[Column],
                           span_m: float, resolution: int = 33):
    """Thin-plate fit through anchor pins and column tops; (P, a) of the fit."""
    pts = [(x, y, 0.0) for (x, y) in anchors.points]
    pts += [(c.position[0], c.position[1], c.height) for c in columns]
    xy = np.array([(p[0], p[1]) for p in pts])
    z = np.array([p[2] for p in pts])
    coords = np.linspace(0.0, span_m, resolution)
    Z = thin_plate_grid(xy, z, coords)
    # mesh the fit directly for perimeter/area comparison
    mesh = TriangleMesh(coords_m=coords, heights_m=Z)
    return mesh.boundary_length(), mesh.area()


def reduce_formwork(design: CandidateDesign, surface: ShellSurface, tolerance: float,
                    grid: int, structure: StructureSpec) -> ColumnSet:
    """Remove formwork columns while the supported shape holds its metrics.

    Candidates are tried in ascending order of FEM vertical reaction; a
    removal sticks iff the thin-plate fit through the anchors and the
    remaining column tops stays within dP = tolerance * P_ref and
    da = tolerance * a_ref of the full 16-column reference fit (P_ref,
    a_ref).  Load-bearing columns are never touched.  `surface` is the
    design's surface, which the reaction solve needs.
    """
    if tolerance < 0:
        raise ParameterError("tolerance must be non-negative")
    span_m = design.anchors.span_m
    all_fw = list(design.columns.formwork)
    p_ref, a_ref = _fit_supported_surface(
        design.anchors, list(design.columns.load_bearing) + all_fw, span_m)
    dP, da = tolerance * p_ref, tolerance * a_ref

    reactions = formwork_reactions(design, surface, grid, structure)
    order = sorted(all_fw, key=lambda c: (reactions[c], c.position))

    remaining = list(all_fw)
    removed_any = True
    while removed_any:
        removed_any = False
        for col in list(order):
            if col not in remaining:
                continue
            trial = [c for c in remaining if c is not col]
            p, a = _fit_supported_surface(
                design.anchors, list(design.columns.load_bearing) + trial, span_m)
            if abs(p - p_ref) <= dP and abs(a - a_ref) <= da:
                remaining = trial
                removed_any = True
        # one full sweep with no acceptable removal terminates the loop
    return ColumnSet(load_bearing=design.columns.load_bearing,
                     formwork=tuple(remaining))


def shelter_control_grid(config: PipelineConfig, seed: int, kind: AnchorKind,
                         anchor_index: int, iteration: int) -> ControlGrid:
    """Seeded shelter control grid: random dome heights, anchors at zero.

    Heights are drawn uniformly in [0, A_i] metres where the iteration's
    amplitude A_i is itself drawn within the [optimizer] cap; control points
    over anchor corners are clamped to the ground.
    """
    block = config.optimizer
    rng = _iteration_rng(seed * 5 + anchor_index, iteration)
    lo = block.amplitude_min_fraction * block.amplitude_cap_m
    amp_m = float(rng.uniform(lo, block.amplitude_cap_m))
    m = block.control_F + 1
    z_mm = rng.uniform(0.0, amp_m * 1000.0, size=(m, m))
    corner_ij = {(0, 0): 0, (m - 1, 0): 1, (m - 1, m - 1): 2, (0, m - 1): 3}
    wanted = set(_ANCHOR_CORNERS[kind])
    for (i, j), corner in corner_ij.items():
        if corner in wanted:
            z_mm[i, j] = 0.0
    return ControlGrid(F=block.control_F, amplitude_A=amp_m * 1000.0,
                       span_L=config.gen3d.span_mm, z_values=z_mm,
                       seed=seed, iteration=iteration)


@dataclass(frozen=True)
class OptimizeResult:
    """The ranking, and for its winner (report.winner, None when every
    candidate is rejected) the surface, reduced columns and frame solve."""

    report: RankingReport
    winner_surface: Optional[ShellSurface]  # the one surface the study keeps
    reduced_columns: Optional[ColumnSet]
    winner_analysis: Optional[fem.SolveResult]


def optimize(config: PipelineConfig, structure: StructureSpec,
             seed: int) -> OptimizeResult:
    """Full shelter study: 5 anchor kinds x N iterations, ranked globally.

    Reads [optimizer], [gen3d] span_mm and resolution and [fem] lattice_grid
    from the config.  Each candidate's surface is scored and dropped; the
    winner's is rebuilt once for formwork reduction and its frame solve.
    Results are deterministic for a given (config, structure, seed).
    """
    block = config.optimizer
    span_m = config.gen3d.span_mm / 1000.0
    grid = config.fem.lattice_grid

    def build(ai: int, kind: AnchorKind, it: int) -> CandidateDesign:
        control = shelter_control_grid(config, seed, kind, ai, it)
        surface = interpolate_surface(control, config.gen3d.resolution)
        return evaluate_candidate(f"{kind.value}-{it:02d}", surface,
                                  AnchorConfig(kind=kind, span_m=span_m), block)

    candidates = [build(ai, kind, it)
                  for ai, kind in enumerate(AnchorKind)
                  for it in range(block.iterations_per_anchor)]
    report = rank_designs(candidates, block.weights)
    winner = report.winner
    if winner is None:
        return OptimizeResult(report=report, winner_surface=None,
                              reduced_columns=None, winner_analysis=None)

    surface = interpolate_surface(winner.control, winner.resolution)
    reduced = reduce_formwork(winner, surface, block.reduction_tolerance, grid,
                              structure)
    analysis = _design_solve(winner, surface, reduced, grid, structure)
    return OptimizeResult(report=report, winner_surface=surface,
                          reduced_columns=reduced, winner_analysis=analysis)
