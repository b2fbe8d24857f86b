"""Parametric chainmail unit-cell geometry.

A unit is a closed ring (triangle, circle, or square) of round rod bent to a
centreline loop.  Within a square tiling cell of side ``pitch`` the projected
solid area is modelled as centreline length x rod diameter; everything else
is gap.  All lengths in millimetres unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .errors import InfeasibleError, ParameterError

# Standard ring catalog: side 7.5 mm triangle, 11 mm circumference circle,
# 11 mm square, all at 1 mm rod.
STANDARD_DIMENSIONS = {
    "triangular": (7.5, 1.0),
    "circular": (11.0, 1.0),
    "rectangular": (11.0, 1.0),
}


class Shape(Enum):
    TRIANGULAR = "triangular"
    CIRCULAR = "circular"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class UnitCell:
    """One ring plus its tiling pitch.

    ``member_length_L`` is the triangle side, the circle circumference, or the
    square side (square rings: b = L).  ``cell_pitch`` is the centre-to-centre
    spacing of interlocked units in a sheet; None until calibrated.
    """

    shape: Shape
    member_length_L: float
    rod_diameter_d: float
    cell_pitch: Optional[float] = None

    def __post_init__(self):
        if self.rod_diameter_d <= 0:
            raise ParameterError("rod diameter must be positive")
        if self.member_length_L <= self.rod_diameter_d:
            raise ParameterError("member length must exceed rod diameter")
        if self.cell_pitch is not None and self.cell_pitch <= 0:
            raise ParameterError("cell pitch must be positive")

    def centreline_length(self) -> float:
        """Total centreline length of the ring loop, mm."""
        if self.shape is Shape.TRIANGULAR:
            return 3.0 * self.member_length_L
        if self.shape is Shape.CIRCULAR:
            return self.member_length_L
        return 4.0 * self.member_length_L

    def solid_area(self) -> float:
        """Projected solid area of one ring, mm^2 (centreline length x d)."""
        return self.centreline_length() * self.rod_diameter_d

    def footprint_extent(self) -> float:
        """Largest plan dimension of the ring footprint, mm.

        Lower bound on a pitch for which the ring lies inside its own cell;
        the planar area model is only trusted above it.
        """
        L, d = self.member_length_L, self.rod_diameter_d
        if self.shape is Shape.CIRCULAR:
            return L / math.pi + d
        # triangle bounding box is L wide, square is L; pad by d for rod width
        return L + d

    def with_pitch(self, pitch: float) -> "UnitCell":
        return replace(self, cell_pitch=pitch)


def solid_to_gap_ratio(cell: UnitCell) -> float:
    """Fraction of the tiling cell covered by ring material, in [0, 1]."""
    if cell.rod_diameter_d <= 0:
        raise ParameterError("rod diameter must be positive")
    if cell.cell_pitch is None or cell.cell_pitch <= 0:
        raise ParameterError("cell pitch must be positive and set")
    solid = cell.solid_area()
    total = cell.cell_pitch ** 2
    if solid > total:
        raise ParameterError(
            f"pitch {cell.cell_pitch:.3f} mm too small: solid area exceeds cell area"
        )
    return solid / total


def max_ratio(cell: UnitCell) -> float:
    """The largest solid fraction the ring reaches: at its footprint pitch,
    the least pitch the area model trusts."""
    return solid_to_gap_ratio(cell.with_pitch(cell.footprint_extent()))


def calibrate_pitch(cell: UnitCell, target_ratio: float,
                    tol: float = 1e-6) -> float:
    """Find the pitch at which the solid fraction equals ``target_ratio``.

    Monotone bisection: solid fraction strictly decreases with pitch.  The
    search floor is the ring's own footprint extent, so pitches where the
    ring would spill outside its cell are rejected as unreachable.
    """
    if not 0.0 < target_ratio < 1.0:
        raise InfeasibleError(
            f"target ratio {target_ratio} unreachable: a ring never fills its cell"
        )
    lo = cell.footprint_extent()
    ratio_lo = max_ratio(cell)
    if target_ratio > ratio_lo:
        raise InfeasibleError(
            f"target ratio {target_ratio} unreachable for L={cell.member_length_L}, "
            f"d={cell.rod_diameter_d}: maximum is {ratio_lo:.6f} at pitch {lo:.3f} mm"
        )
    hi = lo
    while solid_to_gap_ratio(cell.with_pitch(hi)) > target_ratio:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = solid_to_gap_ratio(cell.with_pitch(mid))
        if abs(r - target_ratio) <= tol:
            return mid
        if r > target_ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moment_of_inertia(cell: UnitCell) -> float:
    """Section constant per ring shape, evaluated verbatim.

    Triangular: sqrt(3)/36 * L^3 * d
    Circular:   1/2 * R^3 * d^2 with R = L / (2 pi)
    Rectangular (L = b): 1/12 * (L*b^3 + b*L^3) * d

    The circular expression carries d^2 and is dimensionally mm^5 while the
    others are mm^4; it is reproduced as printed in the source material and
    only ever compared against values of the same shape.
    """
    L, d = cell.member_length_L, cell.rod_diameter_d
    if cell.shape is Shape.TRIANGULAR:
        return math.sqrt(3.0) / 36.0 * L ** 3 * d
    if cell.shape is Shape.CIRCULAR:
        R = L / (2.0 * math.pi)
        return 0.5 * R ** 3 * d ** 2
    b = L  # square rings
    return (L * b ** 3 + b * L ** 3) * d / 12.0


def unit_solid_volume(cell: UnitCell) -> float:
    """Rod volume of one ring, mm^3: centreline length x circular section."""
    return cell.centreline_length() * math.pi * (cell.rod_diameter_d / 2.0) ** 2


def sheet_weight(cell: UnitCell, rows: int, cols: int, density_g_cm3: float) -> float:
    """Estimated weight in grams of a rows x cols sheet of one unit.

    Each ring weighs its solid rod volume (``unit_solid_volume``) times the
    print material density, so this is a solid-rod estimate, not a measured
    sample weight.  At equal rod diameter and density the grams therefore
    follow centreline length.
    """
    if rows < 0 or cols < 0:
        raise ParameterError("grid counts must be non-negative")
    if density_g_cm3 <= 0:
        raise ParameterError("material density must be positive")
    # g/cm^3 -> g/mm^3
    return rows * cols * unit_solid_volume(cell) * density_g_cm3 * 1e-3


def standard_cell(shape: Shape, target_ratio: float,
                  pitch: Optional[float] = None) -> UnitCell:
    """Catalog cell for a shape; pitch calibrated to ``target_ratio`` if not given."""
    L, d = STANDARD_DIMENSIONS[shape.value]
    cell = UnitCell(shape, L, d)
    if pitch is None:
        pitch = calibrate_pitch(cell, target_ratio)
    return cell.with_pitch(pitch)
